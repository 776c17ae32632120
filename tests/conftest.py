"""Settings shared by every test module."""

from hypothesis import settings

# Every property draws the same examples on every run and has no time limit
# per example: a failure repeats, and a slow host does not fail a test.
settings.register_profile("dynseg", deadline=None, derandomize=True)
settings.load_profile("dynseg")

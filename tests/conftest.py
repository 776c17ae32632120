"""Settings shared by every test module."""

import multiprocessing
import os

import pytest
from hypothesis import settings

# Every property draws the same examples on every run and has no time limit
# per example: a failure repeats, and a slow host does not fail a test.
settings.register_profile("dynseg", deadline=None, derandomize=True)
settings.load_profile("dynseg")


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fails a test that leaves a child process running.

    ``detect``, ``rank`` and ``benchmark`` start worker pools; each must
    close its pool, and its workers, before it returns.
    """
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the test: {left}"


@pytest.fixture
def set_cpus(monkeypatch):
    """Sets the CPUs this process may use: ``set_cpus(n)`` gives it an
    affinity set of n CPUs, ``set_cpus(None)`` a platform with no affinity
    set and an unknown CPU count."""

    def set_to(n):
        if n is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                                raising=False)

    return set_to

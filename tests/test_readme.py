"""README's Library example runs as documented."""

import re
from pathlib import Path

from dynseg import SearchSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    points, nmi = capsys.readouterr().out.splitlines()
    assert namespace["spec"] == SearchSpec(seed=0)
    assert points == str(namespace["solution"].change_points.points)
    assert 0.0 <= float(nmi) <= 1.0

"""README's Library example runs as documented, and its flag lists match the code."""

import re
from pathlib import Path

from dynseg import Consensus, Criterion, FitMeasure, SearchSpec
from dynseg.search import STRATEGIES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    points, nmi = capsys.readouterr().out.splitlines()
    assert namespace["spec"] == SearchSpec(seed=0)
    assert points == str(namespace["solution"].change_points)
    assert 0.0 <= float(nmi) <= 1.0


def test_flags_line_lists_every_choice():
    flags = README.read_text().split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    listed = dict(re.findall(r"`--(\w+) \{([^}]*)\}`", flags))
    assert {flag: names.split(",") for flag, names in listed.items()} == {
        "objective": [m.value for m in (*Criterion, *FitMeasure)],
        "consensus": [c.value for c in Consensus],
        "search": list(STRATEGIES),
    }

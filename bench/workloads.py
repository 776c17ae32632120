"""Workload definitions, input generation and output checks for the benchmark.

Every operation goes through the public CLI entry point ``dynseg.cli.main``,
in-process.  A workload's inputs are a pure function of the benchmark seed:
a small pool of generated networks (detect workloads) or of grid seeds
(grid workload), which the run cycles through.

Run as a script, this module is one set-up of a workload: it imports
``dynseg`` from the checkout, writes the workload's input files into a
directory and prints the monotonic clock reading at which it was ready.
The harness times several such fresh processes to get ``setup_s``.

    python3 bench/workloads.py <workload> <seed> <dir> <tiny:0|1>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]

# Generator parameters shared by every workload.
C_MIN, C_IN, C_OUT = 5, 20, 4

GRID_COMPARE = "bic:sum-walktrap:bottomup,aic:sum-walktrap:bottomup"
GRID_HEADER = "config\tl\tinstances\tsim_t\tsim_p\tsim_b\tselected_l\taupr"


class CheckoutError(RuntimeError):
    """The package to measure is not the checkout's own ``src/dynseg``."""


def import_dynseg(checkout: Path = CHECKOUT):
    """Import ``dynseg`` from ``<checkout>/src`` and refuse any other copy.

    Parent and change runs must each measure their own tree; an installed
    copy shadowing the checkout would make both measure the same code.
    """
    # OpenBLAS helper threads spin on a second core after every matrix
    # product, and on a small shared machine that spinning makes solve
    # times depend on whatever else runs there.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = checkout / "src"
    if not (src / "dynseg" / "__init__.py").is_file():
        raise CheckoutError(f"no dynseg package under {src}")
    sys.path.insert(0, str(src))
    import dynseg
    import dynseg.cli

    where = Path(dynseg.__file__).resolve()
    if not where.is_relative_to(src.resolve()):
        raise CheckoutError(f"dynseg imported from {where}, not from {src}")
    return dynseg


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "detect" or "grid"
    k: int
    n: int
    l: int  # segments per generated network; unused by the grid
    flags: tuple[str, ...]  # detect method flags, or grid flags
    pool: int  # distinct inputs per run; every run solves each at least once
    networks_per_op: int  # networks solved by one operation


_GRID_INSTANCES = 2
_GRID_L_VALUES = "1,2,4,8"

WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-n60", "detect", 16, 60, 4, (), 20, 1),
        Workload(
            "exhaustive-k32", "detect", 32, 50, 8,
            ("--search", "exhaustive", "--consensus", "sum-lpa"), 6, 1,
        ),
        Workload(
            "avglouvain-topdown", "detect", 16, 30, 4,
            ("--objective", "modularity", "--consensus", "avg-louvain",
             "--search", "topdown"), 20, 1,
        ),
        Workload(
            "grid-jobs2", "grid", 8, 20, 0,
            ("--l-values", _GRID_L_VALUES, "--instances", str(_GRID_INSTANCES),
             "--compare", GRID_COMPARE, "--jobs", "2"),
            10, 2 * len(_GRID_L_VALUES.split(",")) * _GRID_INSTANCES,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """A seconds-long variant of a workload, for the harness self-tests."""
    if w.kind == "grid":
        flags = ("--l-values", "1,2,4", "--instances", "2",
                 "--compare", GRID_COMPARE, "--jobs", "2")
        return Workload(w.name, w.kind, 4, 20, 0, flags, 1, 2 * 3 * 2)
    return Workload(w.name, w.kind, 6, 20, 2, w.flags, 2, 1)


def resolve(name: str, is_tiny: bool) -> Workload:
    w = WORKLOADS[name]
    return tiny(w) if is_tiny else w


def item_seed(workload: str, seed: int, index: int) -> int:
    """Seed of pool input ``index``; a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{workload}\x1f{seed}\x1f{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def call_cli(dynseg, argv: list[str]) -> tuple[int, str]:
    """Run ``dynseg.cli.main(argv)``, returning its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = dynseg.cli.main(argv)
    return rc, out.getvalue()


@dataclass(frozen=True)
class Item:
    index: int
    seed: int
    network: Path | None  # detect workloads only
    truth: Path | None


def items(w: Workload, seed: int, workdir: Path) -> list[Item]:
    out = []
    for i in range(w.pool):
        s = item_seed(w.name, seed, i)
        if w.kind == "detect":
            out.append(Item(i, s, workdir / f"net{i}.txt", workdir / f"truth{i}.txt"))
        else:
            out.append(Item(i, s, None, None))
    return out


# Generated networks differ several-fold in edge count, and solve time
# partly follows edge count.  Each pool input is therefore the middle one, by
# size, of a group of candidates taken in size order: a run's pool covers
# the size distribution evenly instead of by chance, which keeps per-run
# medians comparable across seeds.
CANDIDATES_PER_INPUT = 4


def write_inputs(dynseg, w: Workload, seed: int, workdir: Path) -> None:
    if w.kind != "detect":
        return
    candidates = []
    for j in range(w.pool * CANDIDATES_PER_INPUT):
        net, truth = workdir / f"cand{j}.txt", workdir / f"cand{j}.truth"
        rc, _ = call_cli(dynseg, [
            "generate", "--output", str(net), "--truth", str(truth),
            "--k", str(w.k), "--l", str(w.l), "--n", str(w.n), "--cmin", str(C_MIN),
            "--cin", str(C_IN), "--cout", str(C_OUT),
            "--seed", str(item_seed(w.name, seed, j)),
        ])
        if rc != 0:
            raise RuntimeError(f"generate failed for candidate {j} (exit {rc})")
        with open(net) as fh:
            candidates.append((sum(1 for _ in fh), j))
    candidates.sort()
    chosen = {}
    for item in items(w, seed, workdir):
        _, j = candidates[item.index * CANDIDATES_PER_INPUT + CANDIDATES_PER_INPUT // 2]
        chosen[j] = item
    for _, j in candidates:
        net, truth = workdir / f"cand{j}.txt", workdir / f"cand{j}.truth"
        if j in chosen:
            net.replace(chosen[j].network)
            truth.replace(chosen[j].truth)
        else:
            net.unlink()
            truth.unlink()


def op_argv(w: Workload, item: Item, out_path: Path) -> list[str]:
    if w.kind == "detect":
        return ["detect", "--input", str(item.network), "--output", str(out_path),
                "--seed", str(item.seed), *w.flags]
    return ["benchmark", "--k", str(w.k), "--n", str(w.n), "--cmin", str(C_MIN),
            "--cin", str(C_IN), "--cout", str(C_OUT), "--seed", str(item.seed),
            "--output", str(out_path), *w.flags]


def _flag(w: Workload, name: str) -> str:
    return w.flags[w.flags.index(name) + 1]


def check_detect(dynseg, item: Item, text: str, report: str) -> tuple[dict, float]:
    """Check one detect solution; returns the report fields and sim_b (NMI).

    Raises ValueError on any failed check.
    """
    from dynseg.dyngraph import dump_output, load_dynamic_network, load_output
    from dynseg.evaluation import PartitionMetric, sim_b

    fields = dict(line.split("\t", 1) for line in report.splitlines() if "\t" in line)
    if "consensus_calls" not in fields or "chosen_l" not in fields:
        raise ValueError("detect report lacks consensus_calls or chosen_l")
    solution = load_output(text)
    with open(item.network) as fh:
        network = load_dynamic_network(fh)
    solution.validate_for(network)
    if dump_output(solution) != text:
        raise ValueError("solution does not re-render byte-identically")
    if solution.num_segments != int(fields["chosen_l"]):
        raise ValueError("solution segment count differs from reported chosen_l")
    with open(item.truth) as fh:
        truth = load_output(fh)
    return fields, sim_b(solution, truth, PartitionMetric.NMI, network)


def check_grid(w: Workload, text: str) -> float:
    """Check one benchmark report; returns its mean sim_b over rows.

    Raises ValueError on any failed check.
    """
    lines = text.splitlines()
    configs = _flag(w, "--compare").split(",")
    l_values = _flag(w, "--l-values").split(",")
    instances = _flag(w, "--instances")
    rows = [(c, l) for c in configs for l in l_values]
    expected = 1 + len(rows) + len(l_values)
    if len(lines) != expected or lines[0] != GRID_HEADER:
        raise ValueError(f"report has {len(lines)} lines, expected {expected}")
    sims = []
    for (config, l), line in zip(rows, lines[1:]):
        cells = line.split("\t")
        if len(cells) != 8 or cells[:3] != [config, l, instances]:
            raise ValueError(f"malformed report row {line!r}")
        values = [float(x) for x in cells[3:6]]
        if not all(0.0 <= v <= 1.0 for v in values):
            raise ValueError(f"similarity out of [0, 1] in row {line!r}")
        float(cells[6])
        if cells[7] != "n/a":
            float(cells[7])
        sims.append(values[2])
    for l, line in zip(l_values, lines[1 + len(rows):]):
        cells = line.split("\t")
        if len(cells) != 3 or cells[:2] != ["ttest_sim_b", f"l={l}"] \
                or not cells[2].startswith("p="):
            raise ValueError(f"malformed t-test line {line!r}")
        float(cells[2][2:].split()[0])
    return sum(sims) / len(sims)


if __name__ == "__main__":
    name, seed, workdir, is_tiny = sys.argv[1:5]
    pkg = import_dynseg()
    write_inputs(pkg, resolve(name, is_tiny == "1"), int(seed), Path(workdir))
    print(repr(time.monotonic()))

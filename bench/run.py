"""End-to-end and per-layer benchmark of dynseg.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py``) in this process, closed loop, one
operation at a time, each operation one call of ``dynseg.cli.main``.
Inputs come from ``--seed``.  The run cycles through the workload's input
pool until ``--seconds`` have passed and every pool input has been solved
once, and checks every output.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` every input is solved twice, once untraced and once with
spans recorded around the calls into each layer (order alternating); the
two outputs must be byte-identical, and the last line reports the
per-layer metrics derived from the spans.  Spans are written to
``.bench_run/<workload>-seed<n>-trace1/spans.jsonl``.

Reported times are calibrated: a fixed reference computation, independent
of ``dynseg``, is timed before and after every set-up and operation, and
each time is scaled by ``Reference.NOMINAL_S`` over the mean of the two
(see ``Reference``).  The raw times are printed too.

``dynseg`` is imported from the checkout's ``src/``; the run fails if it
resolves anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 3
# No operation starts after this many seconds, so a run ends well within
# the 180 s a run may take even on a slow machine.
MAX_START_S = 120.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def highest_tail_percentile(samples: int) -> float | None:
    """Highest tail percentile with at least ten samples beyond it, if any."""
    for p in TAIL_PERCENTILES:
        # samples beyond p = samples * (100 - p) / 100, in per-mille integers
        if samples * (1000 - round(p * 10)) >= 10 * 1000:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Reference:
    """A fixed computation, independent of dynseg, timed between operations.

    On a shared host everything in this process runs up to about twice as
    slow for minutes at a time, longer than a run.  An operation and the
    reference samples taken just before and after it slow down alike, so
    their ratio stays put.  A calibrated time is that ratio times
    ``NOMINAL_S``: seconds at the speed the reference has when the host is
    quiet.  The reference is one label-propagation sweep over a fixed
    random graph held as adjacency lists, the kind of loop that dominates
    dynseg's clusterers.  Of the references tried (dict and integer loops,
    matrix products, small-vector numpy calls, random dict reads, this
    sweep), it tracked the slowdowns of walktrap and Louvain operations
    best overall.
    """

    # Uncontended time of ``_work`` on a 2-vCPU shared virtual machine with
    # Python 3.11.7 (about the fastest of many samples).
    NOMINAL_S = 0.039

    def __init__(self):
        rng = random.Random(1)
        self._adjacency = [[rng.randrange(20_000) for _ in range(10)] for _ in range(20_000)]
        self.samples: list[float] = []

    def _work(self) -> None:
        labels = list(range(len(self._adjacency)))
        for v, neighbours in enumerate(self._adjacency):
            votes = {}
            for u in neighbours:
                votes[labels[u]] = votes.get(labels[u], 0) + 1
            labels[v] = max(votes, key=votes.get)

    def sample(self) -> float:
        started = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - started)
        return self.samples[-1]

    def calibrate(self, wall: float) -> float:
        """Calibrated seconds of ``wall``, timed since the last sample.

        Takes the next sample, and scales ``wall`` by the mean of the
        samples on either side of it.
        """
        before = self.samples[-1]
        after = self.sample()
        return wall * self.NOMINAL_S / ((before + after) / 2)


def measure_setup(w, seed: int, workdir: Path, is_tiny: bool, ref: Reference):
    """Raw and calibrated wall times of fresh processes that import dynseg
    and write the inputs."""
    script = Path(workloads.__file__)
    times, calibrated = [], []
    ref.sample()
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(script), w.name, str(seed), str(workdir),
             "1" if is_tiny else "0"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - started)
        calibrated.append(ref.calibrate(times[-1]))
    return times, calibrated


class Runner:
    """Runs and checks operations; accumulates outcomes and output digests."""

    def __init__(self, dynseg, w, workdir: Path):
        self.dynseg = dynseg
        self.w = w
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[int, bytes] = {}  # first output per pool input
        self.sim_b: dict[int, float] = {}
        self.consensus_calls = 0  # sum over detect reports

    def solve(self, item, tag: str, tracer=None, op: int = 0):
        """One operation; returns (wall seconds, output bytes or None on failure)."""
        out_path = self.workdir / f"out{item.index}-{tag}.txt"
        out_path.unlink(missing_ok=True)
        argv = workloads.op_argv(self.w, item, out_path)
        self.attempted += 1
        started = time.perf_counter()
        wall = None
        try:
            if tracer is None:
                rc, report = workloads.call_cli(self.dynseg, argv)
            else:
                with tracer.installed(), tracer.operation(op):
                    rc, report = workloads.call_cli(self.dynseg, argv)
            wall = time.perf_counter() - started
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            data = out_path.read_bytes()
            self._check(item, data, report)
        except Exception:  # any failure of the program counts against it
            if wall is None:
                wall = time.perf_counter() - started
            self.failed += 1
            sys.stderr.write(f"operation on input {item.index} failed:\n")
            traceback.print_exc()
            return wall, None
        return wall, data

    def _check(self, item, data: bytes, report: str) -> None:
        first = item.index not in self.outputs
        if not first and data != self.outputs[item.index]:
            raise ValueError("output differs from an earlier solve of the same input")
        if self.w.kind == "detect":
            fields, sim = workloads.check_detect(self.dynseg, item, data.decode(), report)
            self.consensus_calls += int(fields["consensus_calls"])
        else:
            sim = workloads.check_grid(self.w, data.decode())
        if first:
            self.outputs[item.index] = data
            self.sim_b[item.index] = sim


def digest(outputs: dict[int, bytes]) -> str:
    """sha256 over the output of every pool input, in input order."""
    h = hashlib.sha256()
    for index in sorted(outputs):
        h.update(f"{index}\n".encode())
        h.update(outputs[index])
    return h.hexdigest()


def cycle(items, seconds: float):
    """Pool inputs in order, round after round, while the run may continue.

    After the first round, an operation starts only if, at the median time
    operations have taken so far, less than half of it would run past
    ``seconds``.
    """
    started = last = time.perf_counter()
    took: list[float] = []
    for op in itertools.count():
        now = time.perf_counter()
        if op:
            took.append(now - last)
        last = now
        elapsed = now - started
        if op >= len(items) and (
            elapsed + statistics.median(took) / 2 >= seconds or elapsed >= MAX_START_S
        ):
            return
        yield op, items[op % len(items)]


def run_untraced(runner, items, seconds: float, ref: Reference):
    """Raw and calibrated wall times of the operations."""
    walls, calibrated = [], []
    for _, item in cycle(items, seconds):
        wall, _ = runner.solve(item, "plain")
        walls.append(wall)
        calibrated.append(ref.calibrate(wall))
    return walls, calibrated


def run_traced(runner, items, seconds: float, tracer):
    """Solve each input untraced and traced; returns walls and the traced digest."""
    plain_walls, traced_walls = [], []
    traced_outputs: dict[int, bytes] = {}
    mismatches = 0
    for op, item in cycle(items, seconds):
        results = {}
        order = ("plain", "traced") if op % 2 == 0 else ("traced", "plain")
        for tag in order:
            results[tag] = runner.solve(item, tag, tracer if tag == "traced" else None, op)
        (pw, plain), (tw, traced) = results["plain"], results["traced"]
        plain_walls.append(pw)
        traced_walls.append(tw)
        if plain is not None and traced is not None and plain != traced:
            mismatches += 1
            sys.stderr.write(f"traced output differs on input {item.index}\n")
        if traced is not None:
            traced_outputs.setdefault(item.index, traced)
    return plain_walls, traced_walls, digest(traced_outputs), mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long inputs, for the harness self-tests")
    args = parser.parse_args(argv)

    try:
        dynseg = workloads.import_dynseg()
    except workloads.CheckoutError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    w = workloads.resolve(args.workload, args.tiny)
    workdir = workloads.CHECKOUT / ".bench_run" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    ref = Reference()
    setups, cal_setups = measure_setup(w, args.seed, workdir, args.tiny, ref)
    items = workloads.items(w, args.seed, workdir)
    runner = Runner(dynseg, w, workdir)
    lines = [f"workload\t{w.name}", f"seed\t{args.seed}",
             f"setup_runs_s\t{' '.join(f'{t:.4f}' for t in setups)}"]

    if args.trace:
        tracer = tracing.Tracer()
        plain_walls, traced_walls, traced_digest, mismatches = run_traced(
            runner, items, args.seconds, tracer)
        tracer.write(workdir / "spans.jsonl")
        layer = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layer["trace.overhead_frac"] = (sum(traced_walls) / sum(plain_walls) - 1.0, "ratio")
        digest_ok = traced_digest == digest(runner.outputs) and mismatches == 0
        lines += [
            f"traced_ops\t{len(traced_walls)}",
            f"digest\t{digest(runner.outputs)}",
            f"digest_traced\t{traced_digest}",
            f"dominant_self_layer\t{tracing.dominant_layer(layer)}",
        ]
        if w.kind == "detect":
            # both the untraced and the traced solve of each input reported
            traced_calls = sum(s.name == "consensus.segment_partition" for s in tracer.spans)
            match = 2 * traced_calls == runner.consensus_calls
            lines.append(f"consensus_calls_match_cli\t{int(match)}")
        if tracer.missing:
            lines.append(f"untraced_missing_attributes\t{' '.join(tracer.missing)}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        walls, cal_walls = run_untraced(runner, items, args.seconds, ref)
        digest_ok = True
        p50 = statistics.median(walls)
        per_s = len(walls) * w.networks_per_op / sum(walls)
        metrics = {
            "setup_s": {"value": statistics.median(cal_setups), "unit": "s"},
            "solve_s_p50": {"value": statistics.median(cal_walls), "unit": "s"},
            "solves_per_s": {
                "value": len(cal_walls) * w.networks_per_op / sum(cal_walls), "unit": "1/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "sim_b_nmi": {
                "value": statistics.fmean(runner.sim_b.values()) if runner.sim_b else 0.0,
                "unit": "nmi",
            },
            "ok_frac": {"value": 1.0 - runner.failed / runner.attempted, "unit": "ratio"},
        }
        lines += [
            f"reference_s\tmedian {statistics.median(ref.samples):.5f}"
            f"\tmin {min(ref.samples):.5f}\tsamples={len(ref.samples)}",
            f"raw_setup_s\t{statistics.median(setups):.4f} s",
            f"raw_solves_per_s\t{per_s:.4f} 1/s",
            f"raw_solve_s_p50\t{p50:.4f} s\tsamples={len(walls)}",
            f"solve_walls_s\t{' '.join(f'{t:.3f}' for t in walls)}",
            f"reference_walls_s\t{' '.join(f'{t:.4f}' for t in ref.samples)}",
        ]
        tail = highest_tail_percentile(len(walls))
        if tail is not None:
            lines.append(f"raw_solve_s_p{tail:g}\t{percentile(walls, tail):.4f} s")
        lines.append(f"digest\t{digest(runner.outputs)}")

    lines.append(f"failed_frac\t{runner.failed / runner.attempted}")
    for name, m in metrics.items():
        lines.append(f"{name}\t{m['value']}\t{m['unit']}")
    print("\n".join(lines))
    result = {
        "correct": runner.failed == 0 and digest_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

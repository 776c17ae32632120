"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Covers the self-time arithmetic on nested and threaded spans, the rule for
the highest tail percentile a sample supports, the calibration of times by
the reference computation, the per-table counting of distinct segments,
the guard against measuring a copy of dynseg other than the checkout's,
and a tiny-size smoke run of every workload, traced and untraced, that
checks every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

CHECKOUT = HERE.parent


def _span(sid, name, parent, start, end, attrs=None):
    return Span(sid, name, parent, 0, start, end, attrs)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [
            _span(1, "cli.main", None, 0.0, 10.0),
            _span(2, "search.build_table", 1, 1.0, 4.0),
            _span(3, "consensus.sum_graph", 2, 2.0, 3.0),
            _span(4, "dyngraph.dump", 1, 5.0, 6.0),
        ]
        self.assertEqual(tracing.self_times(spans), {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})

    def test_overlapping_children_count_once(self):
        # two worker threads under one root: the union of their spans is covered
        spans = [
            _span(1, "cli.main", None, 0.0, 10.0),
            _span(2, "search.build_table", 1, 1.0, 6.0),
            _span(3, "search.build_table", 1, 4.0, 9.0),
        ]
        self.assertEqual(tracing.self_times(spans)[1], 2.0)

    def test_children_clipped_to_parent(self):
        spans = [_span(1, "cli.main", None, 0.0, 10.0), _span(2, "dyngraph.load", 1, 8.0, 12.0)]
        self.assertEqual(tracing.self_times(spans)[1], 8.0)

    def test_layer_self_times_sum_to_root_duration(self):
        spans = [
            _span(1, "cli.main", None, 0.0, 10.0),
            _span(2, "search.build_table", 1, 1.0, 4.0),
            _span(3, "static_cluster.walktrap", 2, 2.0, 3.5),
        ]
        m = tracing.layer_metrics(spans, ops=1)
        self.assertAlmostEqual(sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS), 10.0)
        self.assertEqual(tracing.dominant_layer(m), "cli")

    def test_threaded_spans_attach_to_operation_root(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("consensus.sum_graph", lambda: time.sleep(0.01))
        outer = tracer.wrap("search.build_table", lambda: (inner(), time.sleep(0.01)))
        with tracer.operation(7):
            with ThreadPoolExecutor(max_workers=2) as pool:
                for future in [pool.submit(outer) for _ in range(4)]:
                    future.result()
        by_id = {s.id: s for s in tracer.spans}
        root = next(s for s in tracer.spans if s.name == "cli.main")
        tables = [s for s in tracer.spans if s.name == "search.build_table"]
        self.assertEqual(len(tables), 4)
        for s in tracer.spans:
            self.assertEqual(s.op, 7)
            if s.name == "search.build_table":
                self.assertEqual(s.parent, root.id)
            elif s.name == "consensus.sum_graph":
                parent = by_id[s.parent]
                self.assertEqual(parent.name, "search.build_table")
                self.assertLessEqual(parent.start, s.start)
                self.assertLessEqual(s.end, parent.end)
        selfs = tracing.self_times(tracer.spans)
        union = tracing.covered([(s.start, s.end) for s in tables], root.start, root.end)
        self.assertAlmostEqual(selfs[root.id], root.duration - union)
        self.assertGreaterEqual(selfs[root.id], 0.0)

    def test_worker_stacks_are_per_thread(self):
        tracer = tracing.Tracer()
        barrier = threading.Barrier(2)
        leaf = tracer.wrap("objectives.log_likelihood", lambda: barrier.wait(timeout=5))
        with tracer.operation(0):
            threads = [threading.Thread(target=leaf) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
                self.assertFalse(t.is_alive())
        root = next(s for s in tracer.spans if s.name == "cli.main")
        leaves = [s for s in tracer.spans if s.name == "objectives.log_likelihood"]
        # both leaves were open at once; neither became the other's parent
        self.assertEqual([s.parent for s in leaves], [root.id, root.id])

    def test_distinct_segments_counted_per_table(self):
        spans = [_span(1, "cli.main", None, 0.0, 10.0)]
        sid = 2
        for table in range(2):
            table_id = sid
            spans.append(_span(table_id, "search.build_table", 1, 0.0, 1.0))
            sid += 1
            for seg in ([0, 1], [0, 1], [2, 3]):
                spans.append(_span(sid, "objectives.segment_log_likelihood", table_id,
                                   0.0, 0.1, {"segment": seg}))
                sid += 1
        m = tracing.layer_metrics(spans, ops=1)
        self.assertEqual(m["objectives.segment_ll_calls"][0], 6)
        self.assertEqual(m["objectives.segment_ll_distinct"][0], 4)
        self.assertAlmostEqual(m["objectives.segment_ll_useful_ratio"][0], 4 / 6)


class PercentileRuleTest(unittest.TestCase):
    def test_highest_supported_tail(self):
        cases = {1: None, 19: None, 99: None, 100: 90.0, 999: 90.0,
                 1000: 99.0, 9999: 99.0, 10000: 99.9}
        for samples, expected in cases.items():
            self.assertEqual(run.highest_tail_percentile(samples), expected, samples)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(run.percentile(list(range(101)), 90), 90.0)
        self.assertEqual(run.percentile([5.0], 99), 5.0)


class CalibrationTest(unittest.TestCase):
    def test_scales_by_mean_of_neighbouring_samples(self):
        ref = run.Reference()
        ref.samples = [0.1]
        ref.sample = lambda: (ref.samples.append(0.3), 0.3)[1]
        self.assertAlmostEqual(ref.calibrate(2.0), 2.0 * run.Reference.NOMINAL_S / 0.2)
        self.assertEqual(ref.samples, [0.1, 0.3])

    def test_quiet_host_reads_nominal(self):
        ref = run.Reference()
        ref.samples = [run.Reference.NOMINAL_S]
        ref.sample = lambda: (ref.samples.append(run.Reference.NOMINAL_S),
                              run.Reference.NOMINAL_S)[1]
        self.assertAlmostEqual(ref.calibrate(1.5), 1.5)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


class GuardTest(unittest.TestCase):
    def test_refuses_without_checkout_sources(self):
        bare = CHECKOUT / ".bench_run" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "bench")
        try:
            proc = _run(bare, "--workload", "grid-jobs2", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_refuses_a_copy_outside_the_checkout(self):
        # dynseg, once imported from this checkout, shadows another tree's copy
        other = CHECKOUT / ".bench_run" / "selftest-other"
        shutil.rmtree(other, ignore_errors=True)
        (other / "src" / "dynseg").mkdir(parents=True)
        (other / "src" / "dynseg" / "__init__.py").write_text("")
        saved = list(sys.path)
        try:
            workloads.import_dynseg(CHECKOUT)
            with self.assertRaises(workloads.CheckoutError):
                workloads.import_dynseg(other)
        finally:
            sys.path[:] = saved
            shutil.rmtree(other, ignore_errors=True)


class SmokeTest(unittest.TestCase):
    """Every workload at tiny size emits every named metric with its unit."""

    def test_every_workload_emits_every_metric(self):
        spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    proc = _run(CHECKOUT, "--workload", name, "--seed", "3",
                                "--seconds", "1", "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout + proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected[trace])
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)


if __name__ == "__main__":
    unittest.main()

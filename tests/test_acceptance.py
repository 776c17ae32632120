"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them).

The heavyweight detection grid (criteria 4-6 and 10) is computed once in a
module-scoped fixture.  All randomness is pinned to fixed base seeds, so
every run checks the same instances.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dynseg
from dynseg._seeds import derive_seed
from dynseg.cli import main as cli_main
from dynseg.consensus import Consensus, segment_partition
from dynseg.dyngraph import Partition, ScdOutput
from dynseg.evaluation import (
    PartitionMetric,
    change_point_classification,
    ranking_from_cscd,
    sim_b,
    sim_p,
    sim_t,
)
from dynseg.generator import GeneratorConfig, generate
from dynseg.objectives import (
    Criterion,
    num_observations,
    penalty_weight,
    segment_log_likelihood,
)
from dynseg.search import (
    SearchSpec,
    SegmentStore,
    build_table,
)
from label_graphs import clusters_of, from_clusters, partition_at, partition_similarity, segments_of

BASE_SEED = 0
GRID_L = (1, 2, 4, 8, 16)
GRID_INSTANCES = 10


def has_edge(g, u, v):
    return (min(u, v), max(u, v)) in g.edges


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Criteria 1-3: search vs literal enumeration, call counters, dominance
# ---------------------------------------------------------------------------

def _small_instances():
    nets = []
    for i in range(20):
        k = 2 + i % 5  # k in 2..6
        l = 1 + i % k
        cfg = GeneratorConfig(k=k, l=l, n=30, c_min=5, c_in=20, c_out=4,
                              seed=derive_seed(BASE_SEED, "small", i))
        nets.append(generate(cfg)[0])
    return nets


def _spec(strategy, seed):
    return SearchSpec(
        strategy=strategy,
        objective=Criterion.BIC,
        consensus=Consensus.SUM_LOUVAIN,
        seed=seed,
    )


def _enumerate_best_scores(network, spec):
    """Literal enumeration over all 2^(k-1) change point sets."""
    k = network.k
    weight = penalty_weight(num_observations(network), Criterion.BIC)
    best = {}
    for r in range(k):
        for points in itertools.combinations(range(1, k), r):
            total = 0.0
            for start, end in segments_of(points, k):
                p = segment_partition(network, (start, end), spec.consensus, spec.seed)
                n_par = p.num_clusters * (p.num_clusters + 1) // 2
                total += segment_log_likelihood(network, start, end, p) - weight * n_par
            if r + 1 not in best or total > best[r + 1]:
                best[r + 1] = total
    return best


@pytest.fixture(scope="module")
def small_search_results():
    started = time.perf_counter()
    results = []
    for idx, net in enumerate(_small_instances()):
        seed = derive_seed(BASE_SEED, "search", idx)
        t_ex = build_table(net, _spec("exhaustive", seed))
        t_td = build_table(net, _spec("topdown", seed))
        t_bu = build_table(net, _spec("bottomup", seed))
        oracle = _enumerate_best_scores(net, _spec("exhaustive", seed))
        results.append((net, t_ex, t_td, t_bu, oracle))
    return results, time.perf_counter() - started


def test_criterion_1_exhaustive_matches_enumeration(small_search_results):
    results, elapsed = small_search_results
    mismatches = 0
    for _, t_ex, _, _, oracle in results:
        for l, score in oracle.items():
            if t_ex.entry(l).score != score:
                mismatches += 1
    report(
        "criterion 1 (oracle equivalence)",
        mismatches == 0 and elapsed < 60.0,
        f"20 networks, exact per-l score matches: {mismatches} mismatches, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_consensus_call_counters():
    bad = []
    for k in range(2, 11):
        cfg = GeneratorConfig(k=k, l=min(2, k), n=16, c_min=4, c_in=10, c_out=2,
                              seed=derive_seed(BASE_SEED, "count", k))
        net = generate(cfg)[0]
        t_ex = build_table(net, _spec("exhaustive", k))
        if t_ex.consensus_calls != k * (k + 1) // 2:
            bad.append(("exhaustive", k, t_ex.consensus_calls))
    for k in range(2, 17):
        cfg = GeneratorConfig(k=k, l=min(3, k), n=16, c_min=4, c_in=10, c_out=2,
                              seed=derive_seed(BASE_SEED, "countbu", k))
        net = generate(cfg)[0]
        t_bu = build_table(net, _spec("bottomup", k))
        if t_bu.consensus_calls > 4 * k - 5:
            bad.append(("bottomup", k, t_bu.consensus_calls))
    report(
        "criterion 2 (complexity counters)",
        not bad,
        "exhaustive = (k^2+k)/2 for k in 2..10, bottom-up <= 4k-5 for k in 2..16"
        + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_3_heuristics_never_beat_exhaustive(small_search_results):
    results, _ = small_search_results
    violations = 0
    for _, t_ex, t_td, t_bu, _ in results:
        for l in t_ex.entries:
            if t_td.entry(l).score > t_ex.entry(l).score:
                violations += 1
            if t_bu.entry(l).score > t_ex.entry(l).score:
                violations += 1
    report(
        "criterion 3 (heuristic dominance)",
        violations == 0,
        f"exhaustive per-l score >= top-down and bottom-up on 20 networks "
        f"({violations} violations)",
    )


# ---------------------------------------------------------------------------
# Criteria 4-6 and 10: detection-quality grid (shared runs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def detection_grid():
    started = time.perf_counter()
    rows = {}
    for l in GRID_L:
        rows[l] = []
        for i in range(GRID_INSTANCES):
            cfg = GeneratorConfig(
                k=16, l=l, n=50, c_min=5, c_in=20, c_out=4,
                seed=derive_seed(BASE_SEED, "grid", l, i),
            )
            net, truth = generate(cfg)
            det_seed = derive_seed(BASE_SEED, "grid-detect", l, i)
            store = SegmentStore(net)  # BIC and AIC share each segment's clustering
            table_bic = build_table(net, SearchSpec(seed=det_seed), store)
            chosen_bic = table_bic.select(Criterion.BIC)
            out = table_bic.entry(chosen_bic).output
            table_aic = build_table(net, SearchSpec(objective=Criterion.AIC, seed=det_seed), store)
            row = {
                "sim_b": sim_b(out, truth, PartitionMetric.NMI, net),
                # the extremes: one organization for all, one per snapshot
                "sim_b_one": sim_b(table_bic.entry(1).output, truth, PartitionMetric.NMI, net),
                "sim_b_each": sim_b(
                    table_bic.entry(net.k).output, truth, PartitionMetric.NMI, net
                ),
                "l_bic": chosen_bic,
                "l_aic": table_aic.select(Criterion.AIC),
            }
            if l in (2, 4, 8):
                ranking = ranking_from_cscd(table_bic)
                row["aupr"] = change_point_classification(ranking, truth.change_points).aupr
            rows[l].append(row)
    return rows, time.perf_counter() - started


def test_criterion_4_grid_similarity(detection_grid):
    rows, elapsed = detection_grid
    means = {l: float(np.mean([r["sim_b"] for r in rows[l]])) for l in GRID_L}
    ok = all(m >= 0.85 for m in means.values()) and means[1] == 1.0
    ok = ok and elapsed < 600.0
    report(
        "criterion 4 (ground-truth recovery grid)",
        ok,
        "mean sim_b(NMI) per l: "
        + ", ".join(f"l={l}: {means[l]:.3f}" for l in GRID_L)
        + f" (need >= 0.85 each, l=1 exactly 1.0); grid time {elapsed:.0f}s (< 600s)",
    )


def test_criterion_5_aic_segments_at_least_bic(detection_grid):
    rows, _ = detection_grid
    wins = 0
    detail = []
    for l in GRID_L:
        mean_bic = float(np.mean([r["l_bic"] for r in rows[l]]))
        mean_aic = float(np.mean([r["l_aic"] for r in rows[l]]))
        wins += mean_aic >= mean_bic
        detail.append(f"l={l}: aic {mean_aic:.1f} vs bic {mean_bic:.1f}")
    report(
        "criterion 5 (AIC splits at least as much as BIC)",
        wins >= 4,
        f"{wins}/5 configurations; " + ", ".join(detail),
    )


def test_criterion_6_change_point_ranking(detection_grid):
    rows, _ = detection_grid
    means = {
        l: float(np.mean([r["aupr"] for r in rows[l]])) for l in (2, 4, 8)
    }
    report(
        "criterion 6 (change point classification)",
        all(m >= 0.8 for m in means.values()),
        "mean AUPR: " + ", ".join(f"l={l}: {means[l]:.3f}" for l in (2, 4, 8))
        + " (need >= 0.8)",
    )


def test_criterion_10_segments_beat_both_extremes(detection_grid):
    """The paper's compromise: where the truth changes a few times, the chosen
    segmentation recovers it better than one organization for all snapshots
    (l=1) and better than one per snapshot (l=k)."""
    rows, _ = detection_grid
    means = {
        l: {key: float(np.mean([r[key] for r in rows[l]]))
            for key in ("sim_b", "sim_b_one", "sim_b_each")}
        for l in GRID_L
    }
    report(
        "criterion 10 (segments beat both extremes)",
        all(means[l]["sim_b"] > max(means[l]["sim_b_one"], means[l]["sim_b_each"])
            for l in (2, 4, 8)),
        "mean sim_b(NMI) chosen vs l=1 vs l=k: "
        + ", ".join(
            f"l={l}: {m['sim_b']:.3f} vs {m['sim_b_one']:.3f} vs {m['sim_b_each']:.3f}"
            for l, m in means.items()
        )
        + " (chosen must beat both at l=2, 4, 8)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: metric suite
# ---------------------------------------------------------------------------

def test_criterion_7_metric_suite():
    problems = []
    p = from_clusters([["a", "b"], ["c"], ["d", "e", "f"]])
    relabeled = Partition({u: c + 9 for u, c in p.assignment.items()})
    for metric in PartitionMetric:
        if partition_similarity(metric, p, relabeled) != 1.0:
            problems.append(f"{metric.value} identity")
    out = ScdOutput(((0, 1), (2, 3), (4, 5)), (p,) * 3)
    for fn, name in ((sim_t, "sim_t"), (sim_p, "sim_p"), (sim_b, "sim_b")):
        for metric in PartitionMetric:
            if fn(out, out, metric) != 1.0:
                problems.append(f"{name} identity under {metric.value}")

    ari = partition_similarity(
        PartitionMetric.ARI,
        from_clusters([["a", "b", "c"], ["d"]]),
        from_clusters([["a", "d"], ["b"], ["c"]]),
    )
    if abs(ari - (-1 / 3)) > 1e-12:
        problems.append(f"ARI hand example: {ari}")

    rng = np.random.default_rng(derive_seed(BASE_SEED, "metrics"))
    nodes = [f"n{i}" for i in range(20)]
    for metric in (PartitionMetric.AMI, PartitionMetric.ARI):
        vals = []
        for _ in range(1000):
            p1 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 20))})
            p2 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 20))})
            vals.append(partition_similarity(metric, p1, p2))
        mean = float(np.mean(vals))
        if abs(mean) > 0.02:
            problems.append(f"{metric.value} random mean {mean:.4f}")
    report(
        "criterion 7 (metric suite)",
        not problems,
        "identities exact, ARI hand example -1/3, chance-adjusted means ~0"
        + (f"; problems: {problems}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 8: generator statistics
# ---------------------------------------------------------------------------

def test_criterion_8_generator_statistics():
    started = time.perf_counter()
    intra_pairs = intra_edges = inter_pairs = inter_edges = 0
    size_floor_ok = True
    adjacent_differ = True
    snapshots = 0
    seed_idx = 0
    while snapshots < 200:
        l = (1, 2, 4, 8, 16)[seed_idx % 5]
        cfg = GeneratorConfig(k=16, l=l, n=50, c_min=5, c_in=20, c_out=4,
                              seed=derive_seed(BASE_SEED, "stats", seed_idx))
        net, truth = generate(cfg)
        seed_idx += 1
        for part in truth.partitions:
            if any(len(m) < 5 for m in clusters_of(part)):
                size_floor_ok = False
        for a, b in zip(truth.partitions, truth.partitions[1:]):
            if a == b:
                adjacent_differ = False
        for j, g in enumerate(net):
            if snapshots >= 200:
                break
            snapshots += 1
            assign = partition_at(truth, j).assignment
            nodes = sorted(g.nodes)
            for idx, u in enumerate(nodes):
                for v in nodes[idx + 1:]:
                    if assign[u] == assign[v]:
                        intra_pairs += 1
                        intra_edges += has_edge(g, u, v)
                    else:
                        inter_pairs += 1
                        inter_edges += has_edge(g, u, v)
    elapsed = time.perf_counter() - started
    f_in = intra_edges / intra_pairs
    f_out = inter_edges / inter_pairs
    sd_in = math.sqrt(0.4 * 0.6 / intra_pairs)
    sd_out = math.sqrt(0.08 * 0.92 / inter_pairs)
    ok = (
        abs(f_in - 0.4) < 3 * sd_in
        and abs(f_out - 0.08) < 3 * sd_out
        and size_floor_ok
        and adjacent_differ
        and elapsed < 60.0
    )
    report(
        "criterion 8 (generator statistics)",
        ok,
        f"intra freq {f_in:.4f} (0.4 +/- {3 * sd_in:.4f}), "
        f"inter freq {f_out:.4f} (0.08 +/- {3 * sd_out:.4f}), "
        f"sizes >= c_min: {size_floor_ok}, adjacent differ: {adjacent_differ}, "
        f"{elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 9: CLI determinism, including concurrent benchmark execution
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path, capsys):
    problems = []

    gen_args = ["generate", "--k", "8", "--l", "2", "--n", "24", "--cmin", "4",
                "--cin", "12", "--cout", "2", "--seed", "13"]
    net1, truth1 = tmp_path / "n1.txt", tmp_path / "t1.txt"
    net2, truth2 = tmp_path / "n2.txt", tmp_path / "t2.txt"
    assert cli_main(gen_args + ["--output", str(net1), "--truth", str(truth1)]) == 0
    assert cli_main(gen_args + ["--output", str(net2), "--truth", str(truth2)]) == 0
    if net1.read_bytes() != net2.read_bytes() or truth1.read_bytes() != truth2.read_bytes():
        problems.append("generate outputs differ across reruns")

    sol1, sol2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    det_args = ["detect", "--input", str(net1), "--seed", "3"]
    assert cli_main(det_args + ["--output", str(sol1)]) == 0
    assert cli_main(det_args + ["--output", str(sol2)]) == 0
    if sol1.read_bytes() != sol2.read_bytes():
        problems.append("detect outputs differ across reruns")

    rank1, rank2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    rank_args = ["rank", "--input", str(net1), "--seed", "3"]
    assert cli_main(rank_args + ["--output", str(rank1)]) == 0
    assert cli_main(rank_args + ["--output", str(rank2)]) == 0
    if rank1.read_bytes() != rank2.read_bytes():
        problems.append("rank outputs differ across reruns")

    ev1, ev2 = tmp_path / "e1.txt", tmp_path / "e2.txt"
    ev_args = ["evaluate", "--pred", str(sol1), "--truth", str(truth1),
               "--metrics", "nmi,ari"]
    assert cli_main(ev_args + ["--output", str(ev1)]) == 0
    assert cli_main(ev_args + ["--output", str(ev2)]) == 0
    if ev1.read_bytes() != ev2.read_bytes():
        problems.append("evaluate outputs differ across reruns")

    bench = ["benchmark", "--k", "5", "--n", "20", "--cmin", "4", "--cin", "12",
             "--cout", "2", "--l-values", "1,2", "--instances", "2", "--seed", "7"]
    b1, b2, b3 = tmp_path / "b1.txt", tmp_path / "b2.txt", tmp_path / "b3.txt"
    assert cli_main(bench + ["--jobs", "1", "--output", str(b1)]) == 0
    assert cli_main(bench + ["--jobs", "1", "--output", str(b2)]) == 0
    assert cli_main(bench + ["--jobs", "4", "--output", str(b3)]) == 0
    if b1.read_bytes() != b2.read_bytes():
        problems.append("benchmark outputs differ across serial reruns")
    if b1.read_bytes() != b3.read_bytes():
        problems.append("benchmark outputs differ under concurrency")

    capsys.readouterr()  # swallow CLI stdout before reporting
    report(
        "criterion 9 (CLI determinism)",
        not problems,
        "generate/detect/rank/evaluate/benchmark byte-identical across reruns, "
        "benchmark also under --jobs 4"
        + (f"; problems: {problems}" if problems else ""),
    )


def test_criterion_9_louvain_independent_of_blas_threads_and_hash_seed(tmp_path):
    # Louvain sums its null-model terms in Python floats and pins every
    # order it visits, so neither OpenBLAS threads nor string hashing may
    # change a byte of a solution or of its report.
    net = tmp_path / "net.txt"
    assert cli_main(["generate", "--k", "8", "--l", "2", "--n", "24", "--cmin", "4",
                     "--cin", "12", "--cout", "2", "--seed", "13",
                     "--output", str(net), "--truth", str(tmp_path / "t.txt")]) == 0
    src = os.path.dirname(os.path.dirname(dynseg.__file__))
    problems = []
    for consensus in ("avg-louvain", "cmatrix-louvain"):
        outputs = set()
        for blas, hash_seed in itertools.product(("1", "2"), ("0", "1")):
            sol = tmp_path / f"{consensus}-{blas}-{hash_seed}.txt"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas,
                       PYTHONHASHSEED=hash_seed)
            run = subprocess.run(
                [sys.executable, "-m", "dynseg.cli", "detect", "--input", str(net),
                 "--output", str(sol), "--seed", "3", "--consensus", consensus],
                env=env, capture_output=True, text=True, check=True,
            )
            report_lines = [line for line in run.stdout.splitlines()
                            if not line.startswith(("wall_time\t", "output\t"))]
            outputs.add((sol.read_text(), tuple(report_lines)))
        if len(outputs) != 1:
            problems.append(f"{consensus}: {len(outputs)} distinct outputs")
    report(
        "criterion 9 (Louvain determinism)",
        not problems,
        "avg-louvain and cmatrix-louvain detect byte-identical under "
        "OPENBLAS_NUM_THREADS 1/2 and PYTHONHASHSEED 0/1"
        + (f"; problems: {problems}" if problems else ""),
    )

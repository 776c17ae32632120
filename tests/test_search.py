import concurrent.futures
import itertools
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynseg.consensus import ConsensusSpec, segment_partition
from dynseg.dyngraph import ChangePointSet, DynamicNetwork, Snapshot
from dynseg.generator import GeneratorConfig, generate
from dynseg.objectives import (
    Criterion,
    FitMeasure,
    ObjectiveSpec,
    log_likelihood,
    num_observations,
    num_parameters,
    penalty_weight,
    q_b,
    q_p,
    segment_log_likelihood,
    snapshot_fit,
)
from dynseg import search
from dynseg.search import (
    CscdEntry,
    CscdTable,
    SearchSpec,
    SegmentStore,
    bottom_up_search,
    build_table,
    exhaustive_search,
    solve_cscd,
    solve_scd,
    top_down_search,
    usable_cpus,
    worker_count,
)
from dynseg.static_cluster import ClustererSpec


def _spec(strategy="exhaustive", objective=None, seed=0):
    return SearchSpec(
        strategy=strategy,
        objective=objective or ObjectiveSpec.qb(Criterion.BIC),
        selection=Criterion.BIC,
        consensus=ConsensusSpec("sum-graph", ClustererSpec("louvain")),
        seed=seed,
    )


def _network(k=4, seed=0, l=2, n=16):
    cfg = GeneratorConfig(k=k, l=l, n=n, c_min=4, c_in=10, c_out=2, seed=seed)
    return generate(cfg)[0]


def brute_force_scores(network, spec):
    """Best per-l score over all 2^(k-1) change point sets, composed from
    per-segment quantities the same canonical way the search reports them."""
    k = network.k
    consensus = ConsensusSpec(spec.consensus.method, spec.consensus.clusterer, spec.seed)
    if spec.objective.family == "qb":
        weight = penalty_weight(num_observations(network), spec.objective.criterion)
    best: dict[int, float] = {}
    for r in range(k):
        for points in itertools.combinations(range(1, k), r):
            cps = ChangePointSet(points, k)
            total = 0.0
            for start, end in cps.segmentation():
                p = segment_partition(network, (start, end), consensus)
                if spec.objective.family == "qp":
                    total += sum(snapshot_fit(spec.objective.fit, network, start, end, p))
                else:
                    n_par = p.num_clusters * (p.num_clusters + 1) // 2
                    total += (
                        segment_log_likelihood(network, start, end, p)
                        - weight * n_par
                    )
            l = r + 1
            if l not in best or total > best[l]:
                best[l] = total
    if spec.objective.family == "qp":
        best = {l: s / k for l, s in best.items()}
    return best


class TestExhaustive:
    def test_k1_single_entry(self):
        net = _network(k=1, l=1)
        table = exhaustive_search(net, _spec())
        assert set(table.entries) == {1}
        assert table.consensus_calls == 1
        out = table.entry(1).output
        assert out.change_points.points == ()

    @pytest.mark.parametrize("objective", [
        ObjectiveSpec.qb(Criterion.BIC),
        ObjectiveSpec.qb(Criterion.AIC),
        ObjectiveSpec.qp(FitMeasure.MODULARITY),
        ObjectiveSpec.qp(FitMeasure.CONDUCTANCE),
    ])
    def test_matches_brute_force(self, objective):
        net = _network(k=4, seed=3)
        spec = _spec(objective=objective, seed=11)
        table = exhaustive_search(net, spec)
        oracle = brute_force_scores(net, spec)
        assert set(table.entries) == set(oracle)
        for l, score in oracle.items():
            assert table.entry(l).score == score  # bit-exact

    def test_consensus_call_counter(self):
        for k in range(1, 7):
            net = _network(k=k, l=min(2, k), seed=k)
            table = exhaustive_search(net, _spec(seed=5))
            assert table.consensus_calls == k * (k + 1) // 2

    def test_entry_segment_counts(self):
        net = _network(k=5, seed=9)
        table = exhaustive_search(net, _spec())
        for l, entry in table.entries.items():
            assert entry.output.num_segments == l
            assert len(entry.output.partitions) == l


class TestTopDown:
    def test_k1_identical_to_exhaustive(self):
        net = _network(k=1, l=1)
        t_ex = exhaustive_search(net, _spec(seed=2))
        t_td = top_down_search(net, _spec(seed=2))
        assert t_td.entry(1).score == t_ex.entry(1).score

    def test_entry_k_is_all_singletons(self):
        net = _network(k=5, seed=1)
        t_td = top_down_search(net, _spec(seed=4))
        t_ex = exhaustive_search(net, _spec(seed=4))
        assert t_td.entry(5).output.change_points.points == (1, 2, 3, 4)
        # identical partitions to the exhaustive entry (same memoized segments)
        for p, q in zip(t_td.entry(5).output.partitions,
                        t_ex.entry(5).output.partitions):
            assert p.assignment == q.assignment

    def test_call_counter_bound(self):
        for k in (2, 4, 6):
            net = _network(k=k, seed=k + 10)
            table = top_down_search(net, _spec(seed=0))
            assert table.consensus_calls <= k * (k + 1) // 2


class TestBottomUp:
    def test_call_counts(self):
        net = _network(k=2, l=1, seed=7)
        table = bottom_up_search(net, _spec(seed=0))
        assert table.consensus_calls == 3  # 4k - 5 at k = 2

    def test_call_counter_bound(self):
        for k in (2, 3, 5, 8):
            net = _network(k=k, seed=k)
            table = bottom_up_search(net, _spec(seed=1))
            assert table.consensus_calls <= 4 * k - 5

    def test_entry_one_is_whole_network_consensus(self):
        net = _network(k=4, seed=6)
        spec = _spec(seed=3)
        table = bottom_up_search(net, spec)
        direct = segment_partition(
            net, (0, 3),
            ConsensusSpec("sum-graph", ClustererSpec("louvain"), seed=3),
        )
        assert table.entry(1).output.partitions[0].assignment == direct.assignment


LABELS = [f"n{i}" for i in range(10)]
CONSENSUS_SPECS = (
    [ConsensusSpec("sum-graph", ClustererSpec(kind)) for kind in ClustererSpec.KINDS]
    + [ConsensusSpec("average-louvain")]
    + [ConsensusSpec("consensus-matrix", ClustererSpec(kind)) for kind in ClustererSpec.KINDS]
)
OBJECTIVES = [ObjectiveSpec.qb(c) for c in Criterion] + [ObjectiveSpec.qp(f) for f in FitMeasure]


@st.composite
def small_networks(draw):
    """At most 6 snapshots over at most 10 nodes; some empty, some edgeless."""
    snapshots = []
    for _ in range(draw(st.integers(1, 6))):
        nodes = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=10))
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        snapshots.append(Snapshot(nodes, edges))
    return DynamicNetwork(snapshots)


class TestHeuristicDominance:
    @settings(max_examples=60)
    @given(
        small_networks(), st.sampled_from(CONSENSUS_SPECS), st.sampled_from(OBJECTIVES),
        st.integers(0, 2**31 - 1),
    )
    def test_exhaustive_dominates(self, net, consensus, objective, seed):
        """Exhaustive equals enumeration, and no heuristic beats it at any l."""
        assume(objective.criterion is not Criterion.BIC or num_observations(net) > 0)
        spec = SearchSpec("exhaustive", objective, Criterion.AIC, consensus, seed)
        store = SegmentStore(net)
        t_ex = exhaustive_search(net, spec, store)
        t_td = top_down_search(net, spec, store)
        t_bu = bottom_up_search(net, spec, store)
        oracle = brute_force_scores(net, spec)
        assert set(t_ex.entries) == set(oracle) == set(range(1, net.k + 1))
        for l in t_ex.entries:
            assert t_ex.entry(l).score == oracle[l]  # bit-exact
            assert t_ex.entry(l).score >= t_td.entry(l).score
            assert t_ex.entry(l).score >= t_bu.entry(l).score


class TestSolvers:
    def test_solve_cscd_bounds(self):
        net = _network(k=3, seed=2)
        with pytest.raises(ValueError):
            solve_cscd(net, 0, _spec())
        with pytest.raises(ValueError):
            solve_cscd(net, 4, _spec())

    def test_solve_cscd_extremes(self):
        net = _network(k=4, seed=8)
        spec = _spec(seed=5)
        assert solve_cscd(net, 1, spec).change_points.points == ()
        assert solve_cscd(net, 4, spec).change_points.points == (1, 2, 3)

    def test_solve_cscd_two_segments_is_argmax_of_three_candidates(self):
        net = _network(k=4, seed=12)
        spec = _spec(seed=7)
        out = solve_cscd(net, 2, spec)
        oracle = brute_force_scores(net, spec)
        table = exhaustive_search(net, spec)
        assert table.entry(2).score == oracle[2]
        assert out.change_points.points == table.entry(2).output.change_points.points

    def test_solve_scd_returns_table_argmax(self):
        net = _network(k=5, seed=4)
        spec = _spec(strategy="bottomup", seed=2)
        table = build_table(net, spec)
        out = solve_scd(net, spec)
        chosen = table.select(Criterion.BIC)
        scores = {l: table.selection_score(l, Criterion.BIC) for l in table.entries}
        assert scores[chosen] == max(scores.values())
        assert out.change_points.points == table.entry(chosen).output.change_points.points

    def test_scd_single_segment_ground_truth(self):
        cfg = GeneratorConfig(k=8, l=1, n=30, c_min=5, c_in=20, c_out=4, seed=21)
        net, truth = generate(cfg)
        spec = SearchSpec(seed=1)  # default bottom-up, BIC, sum-graph walktrap
        out = solve_scd(net, spec)
        assert out.num_segments == 1

    def test_selection_tie_prefers_fewer_segments(self):
        net = _network(k=2, l=1, seed=5)
        base = build_table(net, _spec())
        entry = base.entry(1)
        tied = CscdTable(
            entries={
                1: entry,
                2: CscdEntry(
                    output=base.entry(2).output,
                    score=entry.score,
                    log_likelihood=entry.log_likelihood,
                    num_parameters=entry.num_parameters,
                ),
            },
            consensus_calls=base.consensus_calls,
            num_observations=base.num_observations,
            objective=base.objective,
        )
        assert tied.select(Criterion.BIC) == 1
        assert tied.select(Criterion.AIC) == 1


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["exhaustive", "topdown", "bottomup"])
    def test_identical_runs(self, strategy):
        net = _network(k=5, seed=14)
        spec = _spec(strategy=strategy, seed=31)
        t1 = build_table(net, spec)
        t2 = build_table(net, spec)
        assert t1.consensus_calls == t2.consensus_calls
        for l in t1.entries:
            assert t1.entry(l).score == t2.entry(l).score
            assert t1.entry(l).output.change_points == t2.entry(l).output.change_points
            for p, q in zip(t1.entry(l).output.partitions, t2.entry(l).output.partitions):
                assert p.assignment == q.assignment

    def test_output_valid_for_network(self):
        net = _network(k=6, seed=16, l=3)
        for strategy in ("exhaustive", "topdown", "bottomup"):
            out = solve_scd(net, _spec(strategy=strategy, seed=9))
            out.validate_for(net)


class TestTableFromMemo:
    """Table entries summed from the per-segment memo agree with the
    whole-output definitions in ``objectives``."""

    OBJECTIVES = [
        ObjectiveSpec.qb(Criterion.BIC),
        ObjectiveSpec.qb(Criterion.AIC),
        ObjectiveSpec.qp(FitMeasure.MODULARITY),
        ObjectiveSpec.qp(FitMeasure.CONDUCTANCE),
    ]

    @pytest.mark.parametrize("strategy", ["exhaustive", "topdown", "bottomup"])
    @pytest.mark.parametrize("objective", OBJECTIVES, ids=lambda o: (o.criterion or o.fit).value)
    def test_entries_match_reference(self, strategy, objective):
        net = _network(k=5, seed=8, l=2)
        table = build_table(net, _spec(strategy=strategy, objective=objective, seed=4))
        assert sorted(table.entries) == list(range(1, net.k + 1))
        for entry in table.entries.values():
            out = entry.output
            assert entry.log_likelihood == log_likelihood(out, net)
            assert entry.num_parameters == num_parameters(out)
            if objective.family == "qb":
                expected = q_b(out, net, objective.criterion)
            else:
                expected = q_p(out, net, objective.fit)
            assert entry.score == pytest.approx(expected)


def _assert_same_table(t, ref):
    assert t.consensus_calls == ref.consensus_calls
    assert t.num_observations == ref.num_observations
    assert t.objective == ref.objective
    assert sorted(t.entries) == sorted(ref.entries)
    for l, e in t.entries.items():
        r = ref.entries[l]
        assert e.score == r.score
        assert e.log_likelihood == r.log_likelihood
        assert e.num_parameters == r.num_parameters
        assert e.output.change_points == r.output.change_points
        assert [p.assignment for p in e.output.partitions] == [
            p.assignment for p in r.output.partitions
        ]


class TestSegmentStore:
    """Tables built on one shared store equal tables built alone, while each
    distinct segment is clustered once."""

    OBJECTIVES = [
        ObjectiveSpec.qb(Criterion.BIC),
        ObjectiveSpec.qb(Criterion.AIC),
        ObjectiveSpec.qp(FitMeasure.MODULARITY),
    ]

    @pytest.mark.parametrize("strategy", ["exhaustive", "topdown", "bottomup"])
    def test_shared_store_equals_fresh_tables(self, strategy, monkeypatch):
        net = _network(k=6, seed=21, l=3)
        specs = [_spec(strategy=strategy, objective=o, seed=7) for o in self.OBJECTIVES]
        fresh = [build_table(net, spec) for spec in specs]

        clustered = []
        real = search.segment_partition

        def counting(network, segment, consensus):
            clustered.append(segment)
            return real(network, segment, consensus)

        monkeypatch.setattr(search, "segment_partition", counting)
        store = SegmentStore(net)
        shared = [build_table(net, spec, store) for spec in specs]
        for t, ref in zip(shared, fresh):
            _assert_same_table(t, ref)
        assert len(clustered) == len(set(clustered))
        assert len(clustered) < sum(t.consensus_calls for t in shared)

    def test_store_keyed_by_consensus_spec_and_seed(self):
        net = _network(k=5, seed=0, l=2)
        specs = [
            SearchSpec(strategy="exhaustive", seed=seed,
                       consensus=ConsensusSpec("sum-graph", ClustererSpec(kind)))
            for kind in ("louvain", "label-propagation") for seed in (1, 2)
        ]
        fresh = [build_table(net, spec) for spec in specs]
        # every spec clusters some segment differently, so a coarser key would show
        outputs = {
            tuple(tuple(sorted(p.assignment.items()))
                  for e in t.entries.values() for p in e.output.partitions)
            for t in fresh
        }
        assert len(outputs) == len(specs)
        store = SegmentStore(net)
        for spec, ref in zip(specs, fresh):
            _assert_same_table(build_table(net, spec, store), ref)

    def test_store_of_another_network_rejected(self):
        net, other = _network(k=4, seed=1), _network(k=4, seed=1)
        with pytest.raises(ValueError, match="another network"):
            build_table(net, _spec(), SegmentStore(other))


class TestParallelFill:
    """A store filled in worker processes equals one filled in-process."""

    CONSENSUS = ConsensusSpec("sum-graph", ClustererSpec("louvain"), 5)

    @pytest.fixture
    def two_workers(self, monkeypatch, set_cpus):
        """Two CPUs, and a pool for any amount of work."""
        set_cpus(2)
        monkeypatch.setattr(search, "MIN_PARALLEL_EDGE_VISITS", 0)

    @pytest.mark.parametrize("with_ll", [True, False])
    def test_parallel_fill_equals_serial(self, monkeypatch, two_workers, with_ll):
        net = _network(k=8, seed=3, l=3, n=20)
        segments = [(t, i) for i in range(net.k) for t in range(i + 1)]
        serial = SegmentStore(net)
        serial.fill(self.CONSENSUS, segments, with_ll)

        parent, real = os.getpid(), search.segment_partition

        def in_workers_only(*args):
            assert os.getpid() != parent, "a segment was clustered in the parent"
            return real(*args)

        monkeypatch.setattr(search, "segment_partition", in_workers_only)
        parallel = SegmentStore(net, jobs=2)
        parallel.fill(self.CONSENSUS, segments, with_ll)
        for start, end in segments:
            want = serial.segment(self.CONSENSUS, start, end)
            got = parallel.segment(self.CONSENSUS, start, end)
            assert list(got.partition.assignment.items()) == \
                list(want.partition.assignment.items())
            assert got.num_parameters == want.num_parameters
            if with_ll:
                assert got.log_likelihood.hex() == want.log_likelihood.hex()
            else:
                assert got.log_likelihood is None is want.log_likelihood

    def test_fill_computes_only_missing_segments(self, monkeypatch, two_workers):
        net = _network(k=5, seed=4)
        segments = [(t, i) for i in range(net.k) for t in range(i + 1)]
        store = SegmentStore(net, jobs=2)
        store.fill(self.CONSENSUS, segments, with_ll=True)

        def no_work(*args, **kwargs):
            raise AssertionError("a memoized segment was computed again")

        monkeypatch.setattr(search, "segment_partition", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        store.fill(self.CONSENSUS, segments, with_ll=True)
        assert store.segment(self.CONSENSUS, 0, net.k - 1, with_ll=True).log_likelihood < 0

    def test_pool_starts_at_the_edge_visit_threshold(self, monkeypatch, set_cpus):
        # the missing segments' edge records decide; memoized ones count for nothing
        set_cpus(2)
        net = _network(k=4, seed=2)
        segments = [(t, i) for i in range(net.k) for t in range(i + 1)]
        offsets = net.edge_offsets
        visits = sum(int(offsets[end + 1] - offsets[start]) for start, end in segments[1:])
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for threshold, want in ((visits + 1, []), (visits, [2])):
            monkeypatch.setattr(search, "MIN_PARALLEL_EDGE_VISITS", threshold)
            store = SegmentStore(net, jobs=2)
            store.segment(self.CONSENSUS, *segments[0])
            store.fill(self.CONSENSUS, segments)
            assert pools == want

    def test_exhaustive_tables_equal_under_jobs(self, two_workers):
        net = _network(k=6, seed=21, l=3)
        for objective in TestSegmentStore.OBJECTIVES:
            spec = _spec(objective=objective, seed=7)
            table = build_table(net, spec, SegmentStore(net, jobs=2))
            _assert_same_table(table, build_table(net, spec))
            assert table.consensus_calls == 21  # (k^2 + k) / 2, the table's own count

    @pytest.mark.parametrize("jobs, tasks, cpus, workers", [
        (4, 10, 2, 2),     # capped by the usable CPUs
        (8, 3, 8, 3),      # capped by the task count
        (1, 10, 8, 1),     # --jobs 1 runs in-process
        (8, 0, 8, 1),      # nothing to do
        (8, 10, None, 1),  # no affinity set and an unknown CPU count count as one
    ])
    def test_worker_count(self, set_cpus, jobs, tasks, cpus, workers):
        set_cpus(cpus)
        assert worker_count(jobs, tasks) == workers

    def test_usable_cpus_follow_the_affinity_set(self, monkeypatch, set_cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        set_cpus(2)  # a 64-CPU host that lets this process run on 2
        assert usable_cpus() == 2
        assert worker_count(64, 528) == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == 64

import concurrent.futures
import itertools
import os
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynseg.consensus import Consensus, segment_partition
from dynseg.dyngraph import ScdOutput
from dynseg.generator import GeneratorConfig, generate
from dynseg.objectives import (
    Criterion,
    FitMeasure,
    log_likelihood,
    num_observations,
    penalty_weight,
    segment_log_likelihood,
    snapshot_fit,
)
from dynseg import search, static_cluster
from dynseg.search import (
    CscdEntry,
    CscdTable,
    SearchSpec,
    SegmentStore,
    build_table,
    solve_cscd,
    solve_scd,
    usable_cpus,
    worker_count,
)
from label_graphs import (
    Snapshot, assignment, network_of, num_parameters, q_b, q_p, segments_of,
)


def _spec(strategy="exhaustive", objective=Criterion.BIC, seed=0):
    return SearchSpec(
        strategy=strategy,
        objective=objective,
        consensus=Consensus.SUM_LOUVAIN,
        seed=seed,
    )


def _network(k=4, seed=0, l=2, n=16):
    cfg = GeneratorConfig(k=k, l=l, n=n, c_min=4, c_in=10, c_out=2, seed=seed)
    return generate(cfg)[0]


def brute_force_scores(network, spec):
    """Best per-l score over all 2^(k-1) change point sets, composed from
    per-segment quantities the same canonical way the search reports them."""
    k = network.k
    fit = isinstance(spec.objective, FitMeasure)
    if not fit:
        weight = penalty_weight(num_observations(network), spec.objective)
    best: dict[int, float] = {}
    for r in range(k):
        for points in itertools.combinations(range(1, k), r):
            total = 0.0
            for start, end in segments_of(points, k):
                p = segment_partition(network, (start, end), spec.consensus, spec.seed)
                if fit:
                    total += sum(snapshot_fit(spec.objective, network, start, end, p))
                else:
                    n_par = p.num_clusters * (p.num_clusters + 1) // 2
                    total += (
                        segment_log_likelihood(network, start, end, p)
                        - weight * n_par
                    )
            l = r + 1
            if l not in best or total > best[l]:
                best[l] = total
    if fit:
        best = {l: s / k for l, s in best.items()}
    return best


class TestExhaustive:
    def test_k1_single_entry(self):
        net = _network(k=1, l=1)
        table = build_table(net, _spec())
        assert set(table.entries) == {1}
        assert table.consensus_calls == 1
        out = table.entry(1).output
        assert out.change_points == ()

    @pytest.mark.parametrize("objective", [
        Criterion.BIC, Criterion.AIC, FitMeasure.MODULARITY, FitMeasure.CONDUCTANCE,
    ])
    def test_matches_brute_force(self, objective):
        net = _network(k=4, seed=3)
        spec = _spec(objective=objective, seed=11)
        table = build_table(net, spec)
        oracle = brute_force_scores(net, spec)
        assert set(table.entries) == set(oracle)
        for l, score in oracle.items():
            assert table.entry(l).score == score  # bit-exact

    def test_consensus_call_counter(self):
        for k in range(1, 7):
            net = _network(k=k, l=min(2, k), seed=k)
            table = build_table(net, _spec(seed=5))
            assert table.consensus_calls == k * (k + 1) // 2

    def test_store_bound_refuses_only_exhaustive(self, monkeypatch):
        net = _network(k=4, seed=1)
        size = search.exhaustive_bytes(net)
        monkeypatch.setattr(search, "EXHAUSTIVE_MAX_STORE_BYTES", size - 1)
        with pytest.raises(ValueError, match="10 segments over 16 nodes"):
            build_table(net, _spec())
        build_table(net, _spec("topdown"))
        build_table(net, _spec("bottomup"))
        monkeypatch.setattr(search, "EXHAUSTIVE_MAX_STORE_BYTES", size)
        assert build_table(net, _spec()).consensus_calls == 10

    def test_store_bound_covers_table_peak(self, monkeypatch):
        """The estimate counts all a table holds at its peak: the store, the
        score memo, the program's best/back dicts, the entries and one
        label-propagation batch; each segment adds no more than its term."""
        spec = SearchSpec("exhaustive", Criterion.BIC, Consensus.SUM_LPA, 0)

        def peak(net):
            tracemalloc.start()
            try:
                build_table(net, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        net, half = _network(k=32, seed=1), _network(k=16, seed=1)
        assert peak(net) <= search.exhaustive_bytes(net)
        # with batches too small to hide it, the growth between two lengths
        # is the per-segment term's alone (the batch term cancels)
        monkeypatch.setattr(static_cluster, "LPA_BATCH_BYTES", 1 << 14)
        growth = search.exhaustive_bytes(net) - search.exhaustive_bytes(half)
        assert peak(net) - peak(half) <= growth

    def test_entry_segment_counts(self):
        net = _network(k=5, seed=9)
        table = build_table(net, _spec())
        for l, entry in table.entries.items():
            assert entry.output.num_segments == l
            assert len(entry.output.partitions) == l


class TestTopDown:
    def test_k1_identical_to_exhaustive(self):
        net = _network(k=1, l=1)
        t_ex = build_table(net, _spec(seed=2))
        t_td = build_table(net, _spec("topdown", seed=2))
        assert t_td.entry(1).score == t_ex.entry(1).score

    def test_entry_k_is_all_singletons(self):
        net = _network(k=5, seed=1)
        t_td = build_table(net, _spec("topdown", seed=4))
        t_ex = build_table(net, _spec(seed=4))
        assert t_td.entry(5).output.change_points == (1, 2, 3, 4)
        # identical partitions to the exhaustive entry (same memoized segments)
        for p, q in zip(t_td.entry(5).output.partitions,
                        t_ex.entry(5).output.partitions):
            assert assignment(p) == assignment(q)

    def test_call_counter_bound(self):
        for k in (2, 4, 6):
            net = _network(k=k, seed=k + 10)
            table = build_table(net, _spec("topdown", seed=0))
            assert table.consensus_calls <= k * (k + 1) // 2


class TestBottomUp:
    def test_call_counts(self):
        net = _network(k=2, l=1, seed=7)
        table = build_table(net, _spec("bottomup", seed=0))
        assert table.consensus_calls == 3  # 4k - 5 at k = 2

    def test_call_counter_bound(self):
        for k in (2, 3, 5, 8):
            net = _network(k=k, seed=k)
            table = build_table(net, _spec("bottomup", seed=1))
            assert table.consensus_calls <= 4 * k - 5

    def test_entry_one_is_whole_network_consensus(self):
        net = _network(k=4, seed=6)
        spec = _spec("bottomup", seed=3)
        table = build_table(net, spec)
        direct = segment_partition(net, (0, 3), Consensus.SUM_LOUVAIN, 3)
        assert assignment(table.entry(1).output.partitions[0]) == assignment(direct)


LABELS = [f"n{i}" for i in range(10)]
OBJECTIVES = [*Criterion, *FitMeasure]


@st.composite
def small_networks(draw):
    """At most 6 snapshots over at most 10 nodes; some empty, some edgeless."""
    snapshots = []
    for _ in range(draw(st.integers(1, 6))):
        nodes = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=10))
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        snapshots.append(Snapshot(nodes, edges))
    return network_of(snapshots)


class TestHeuristicDominance:
    @settings(max_examples=60)
    @given(
        small_networks(), st.sampled_from(Consensus), st.sampled_from(OBJECTIVES),
        st.integers(0, 2**31 - 1),
    )
    def test_exhaustive_dominates(self, net, consensus, objective, seed):
        """Exhaustive equals enumeration, and no heuristic beats it at any l."""
        assume(objective is not Criterion.BIC or num_observations(net) > 0)
        spec = SearchSpec("exhaustive", objective, consensus, seed)
        store = SegmentStore(net)
        t_ex = build_table(net, spec, store)
        t_td = build_table(net, replace(spec, strategy="topdown"), store)
        t_bu = build_table(net, replace(spec, strategy="bottomup"), store)
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
        assert solve_cscd(net, 1, spec).change_points == ()
        assert solve_cscd(net, 4, spec).change_points == (1, 2, 3)

    def test_solve_cscd_two_segments_is_argmax_of_three_candidates(self):
        net = _network(k=4, seed=12)
        spec = _spec(seed=7)
        out = solve_cscd(net, 2, spec)
        oracle = brute_force_scores(net, spec)
        table = build_table(net, spec)
        assert table.entry(2).score == oracle[2]
        assert out.change_points == table.entry(2).output.change_points

    def test_solve_scd_returns_table_argmax(self):
        net = _network(k=5, seed=4)
        spec = _spec(strategy="bottomup", seed=2)
        table = build_table(net, spec)
        out = solve_scd(net, spec)
        chosen = table.select(Criterion.BIC)
        scores = {l: table.selection_score(l, Criterion.BIC) for l in table.entries}
        assert scores[chosen] == max(scores.values())
        assert out.change_points == table.entry(chosen).output.change_points

    def test_scd_single_segment_ground_truth(self):
        cfg = GeneratorConfig(k=8, l=1, n=30, c_min=5, c_in=20, c_out=4, seed=21)
        net, truth = generate(cfg)
        spec = SearchSpec(seed=1)  # default bottom-up, BIC, sum-walktrap
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


class TestSearchSpec:
    def test_selection_is_a_criterion_objective_else_bic(self):
        assert SearchSpec(objective=Criterion.AIC).selection is Criterion.AIC
        assert SearchSpec(objective=Criterion.BIC).selection is Criterion.BIC
        for fit in FitMeasure:
            assert SearchSpec(objective=fit).selection is Criterion.BIC

    @pytest.mark.parametrize("field, value, message", [
        ("objective", "bic", "not a FitMeasure or Criterion"),
        ("objective", None, "not a FitMeasure or Criterion"),
        ("objective", Consensus.AVG_LOUVAIN, "not a FitMeasure or Criterion"),
        ("consensus", "sum-walktrap", "not a Consensus"),
        ("consensus", None, "not a Consensus"),
        ("consensus", Criterion.BIC, "not a Consensus"),
    ], ids=["str", "none", "spec", "consensus-str", "consensus-none", "consensus-objective"])
    def test_objective_neither_fit_measure_nor_criterion_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SearchSpec(**{field: value})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            SearchSpec(strategy="random")


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
                assert assignment(p) == assignment(q)

    def test_output_valid_for_network(self):
        net = _network(k=6, seed=16, l=3)
        for strategy in ("exhaustive", "topdown", "bottomup"):
            out = solve_scd(net, _spec(strategy=strategy, seed=9))
            out.validate_for(net)


class TestTableFromMemo:
    """Table entries summed from the per-segment memo agree with the
    whole-output oracles in ``label_graphs``."""

    OBJECTIVES = [Criterion.BIC, Criterion.AIC, FitMeasure.MODULARITY, FitMeasure.CONDUCTANCE]

    @pytest.mark.parametrize("strategy", ["exhaustive", "topdown", "bottomup"])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_entries_match_reference(self, strategy, objective):
        net = _network(k=5, seed=8, l=2)
        table = build_table(net, _spec(strategy=strategy, objective=objective, seed=4))
        assert sorted(table.entries) == list(range(1, net.k + 1))
        for entry in table.entries.values():
            out = entry.output
            assert entry.log_likelihood == log_likelihood(out, net)
            assert entry.num_parameters == num_parameters(out)
            if isinstance(objective, Criterion):
                expected = q_b(out, net, objective)
            else:
                expected = q_p(out, net, objective)
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
        assert [assignment(p) for p in e.output.partitions] == [
            assignment(p) for p in r.output.partitions
        ]


class TestSegmentStore:
    """Tables built on one shared store equal tables built alone, while each
    distinct segment is clustered once."""

    OBJECTIVES = [Criterion.BIC, Criterion.AIC, FitMeasure.MODULARITY]

    @pytest.mark.parametrize("strategy", ["exhaustive", "topdown", "bottomup"])
    def test_shared_store_equals_fresh_tables(self, strategy, monkeypatch):
        net = _network(k=6, seed=21, l=3)
        specs = [_spec(strategy=strategy, objective=o, seed=7) for o in self.OBJECTIVES]
        fresh = [build_table(net, spec) for spec in specs]

        clustered = []
        one, many = search.segment_partition, search.segment_partitions

        def counting(network, segment, consensus, seed):
            clustered.append(segment)
            return one(network, segment, consensus, seed)

        def counting_many(network, segments, consensus, seed):
            clustered.extend(segments)
            return many(network, segments, consensus, seed)

        monkeypatch.setattr(search, "segment_partition", counting)
        monkeypatch.setattr(search, "segment_partitions", counting_many)
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
                       consensus=consensus)
            for consensus in (Consensus.SUM_LOUVAIN, Consensus.SUM_LPA) for seed in (1, 2)
        ]
        fresh = [build_table(net, spec) for spec in specs]
        # every spec clusters some segment differently, so a coarser key would show
        outputs = {
            tuple(tuple(sorted(assignment(p).items()))
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
    """A store filled in worker processes equals one filled in-process, and
    both equal terms computed one segment at a time."""

    CONSENSUS, SEED = Consensus.SUM_LOUVAIN, 5

    @pytest.fixture
    def two_workers(self, monkeypatch, set_cpus):
        """Two CPUs, and a pool for any amount of work."""
        set_cpus(2)
        monkeypatch.setattr(search, "MIN_PARALLEL_EDGE_VISITS", 0)

    @pytest.mark.parametrize("with_ll", [True, False])
    def test_parallel_fill_equals_serial(self, monkeypatch, two_workers, with_ll):
        # sum-lpa fills run label_propagation_many: in lockstep batches over the
        # serial fill's 36 segments and over each worker's one chunk of 18
        net = _network(k=8, seed=3, l=3, n=20)
        segments = [(t, i) for i in range(net.k) for t in range(i + 1)]
        methods = (Consensus.SUM_LOUVAIN, Consensus.SUM_LPA)
        one_by_one = SegmentStore(net)
        want = {c: [one_by_one.segment(c, self.SEED, *s, with_ll) for s in segments]
                for c in methods}
        serial = SegmentStore(net)
        for c in methods:
            serial.fill(c, self.SEED, segments, with_ll)

        parent, real = os.getpid(), search.segment_partitions

        def in_workers_only(*args):
            assert os.getpid() != parent, "segments were clustered in the parent"
            return real(*args)

        monkeypatch.setattr(search, "segment_partitions", in_workers_only)
        parallel = SegmentStore(net, jobs=2)
        for c in methods:
            parallel.fill(c, self.SEED, segments, with_ll)
        for c in methods:
            for (start, end), ref in zip(segments, want[c]):
                for store in (serial, parallel):
                    got = store.segment(c, self.SEED, start, end)
                    assert list(assignment(got.partition).items()) == \
                        list(assignment(ref.partition).items())
                    assert got.num_parameters == ref.num_parameters
                    if with_ll:
                        assert got.log_likelihood.hex() == ref.log_likelihood.hex()
                    else:
                        assert got.log_likelihood is None is ref.log_likelihood

    def test_fill_computes_only_missing_segments(self, monkeypatch, two_workers):
        net = _network(k=5, seed=4)
        segments = [(t, i) for i in range(net.k) for t in range(i + 1)]
        store = SegmentStore(net, jobs=2)
        store.fill(self.CONSENSUS, self.SEED, segments, with_ll=True)

        def no_work(*args, **kwargs):
            raise AssertionError("a memoized segment was computed again")

        monkeypatch.setattr(search, "segment_partition", no_work)
        monkeypatch.setattr(search, "segment_partitions", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        store.fill(self.CONSENSUS, self.SEED, segments, with_ll=True)
        last = store.segment(self.CONSENSUS, self.SEED, 0, net.k - 1, with_ll=True)
        assert last.log_likelihood < 0

    def test_one_interleaved_chunk_per_worker(self, monkeypatch, two_workers):
        net = _network(k=5, seed=4)
        segments = [(t, i) for i in range(net.k) for t in range(i + 1)]
        mapped = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, chunks, **kwargs):
                mapped.append(list(chunks))
                return super().map(fn, mapped[-1], **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        store = SegmentStore(net, jobs=2)
        store.fill(self.CONSENSUS, self.SEED, segments)
        assert mapped == [[segments[0::2], segments[1::2]]]
        for s in segments:
            assert (self.CONSENSUS, self.SEED, *s) in store._memo

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
            store.segment(self.CONSENSUS, self.SEED, *segments[0])
            store.fill(self.CONSENSUS, self.SEED, segments)
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


def _reference_top_down(k, score):
    """Split one segment at a time; equal gains go to the smallest t."""
    points, per_l = [], {1: ()}
    for l in range(2, k + 1):
        best_t, best_gain = None, None
        for t in range(1, k):
            if t in points:
                continue
            start = max([0] + [p for p in points if p < t])
            end = min([k] + [p for p in points if p > t]) - 1
            gain = score(start, t - 1) + score(t, end) - score(start, end)
            if best_gain is None or gain > best_gain:
                best_t, best_gain = t, gain
        points = sorted(points + [best_t])
        per_l[l] = tuple(points)
    return per_l


def _reference_bottom_up(k, score):
    """Merge one adjacent pair at a time; equal gains go to the leftmost pair."""
    segs, per_l = [[t, t] for t in range(k)], {k: tuple(range(1, k))}
    for l in range(k - 1, 0, -1):
        gains = [score(segs[i][0], segs[i + 1][1]) - score(*segs[i]) - score(*segs[i + 1])
                 for i in range(len(segs) - 1)]
        i = gains.index(max(gains))
        segs[i:i + 2] = [[segs[i][0], segs[i + 1][1]]]
        per_l[l] = tuple(s for s, _ in segs[1:])
    return per_l


def _reference_exhaustive(k, score):
    """Best l-segment split of each prefix by recursion; equal totals keep the
    smallest last-segment start."""
    memo = {}

    def best(i, l):  # (total, points) of the first i snapshots in l segments
        if (i, l) not in memo:
            if l == 1:
                memo[i, l] = (score(0, i - 1), ())
            else:
                options = [(best(t, l - 1)[0] + score(t, i - 1), t) for t in range(l - 1, i)]
                top = max(total for total, _ in options)
                t = min(t for total, t in options if total == top)
                memo[i, l] = (top, best(t, l - 1)[1] + (t,))
        return memo[i, l]

    return {l: best(k, l)[1] for l in range(1, k + 1)}


_REFERENCES = {
    "topdown": _reference_top_down,
    "bottomup": _reference_bottom_up,
    "exhaustive": _reference_exhaustive,
}


def _path_network(k):
    """k snapshots of one edge: clustering each segment costs next to nothing."""
    return network_of([Snapshot(["a", "b"], [("a", "b")]) for _ in range(k)])


@st.composite
def tied_scores(draw):
    """A network length and integer segment scores from a range of three, so
    most gains tie."""
    k = draw(st.integers(1, 30))
    values = draw(st.lists(st.integers(-1, 1), min_size=k * (k + 1) // 2,
                           max_size=k * (k + 1) // 2))
    segments = [(t, i) for i in range(k) for t in range(i + 1)]
    return k, dict(zip(segments, map(float, values)))


class TestTieRules:
    """With integer scores every sum is exact, so a table equals the plain
    reference whenever it breaks ties by the same rule."""

    @staticmethod
    def _table_points(strategy, k, scores):
        """Each entry's change points, checked against the reference."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search._SegmentScorer, "score", lambda self, start, end: scores[start, end])
            table = build_table(_path_network(k), _spec(strategy))
        got = {l: e.output.change_points for l, e in table.entries.items()}
        assert got == _REFERENCES[strategy](k, lambda start, end: scores[start, end])
        return got

    @pytest.mark.parametrize("strategy", list(_REFERENCES))
    @settings(max_examples=30, deadline=None)
    @given(case=tied_scores())
    def test_ties_follow_the_reference(self, strategy, case):
        self._table_points(strategy, *case)

    @pytest.mark.parametrize("strategy, points_of", [
        ("topdown", lambda k, l: tuple(range(1, l))),            # smallest t first
        ("bottomup", lambda k, l: tuple(range(k - l + 1, k))),   # leftmost pairs merge
        ("exhaustive", lambda k, l: tuple(range(1, l))),         # smallest last start
    ], ids=["topdown", "bottomup", "exhaustive"])
    def test_all_scores_equal(self, strategy, points_of):
        k = 30
        scores = {(t, i): 1.0 for i in range(k) for t in range(i + 1)}
        got = self._table_points(strategy, k, scores)
        assert got == {l: points_of(k, l) for l in range(1, k + 1)}


@pytest.mark.parametrize("strategy", ["exhaustive", "topdown", "bottomup"])
def test_one_output_per_entry(monkeypatch, strategy):
    """The searches edit segment ranges; only the table entry builds a
    validated ScdOutput."""
    made = []

    class Counting(ScdOutput):
        def __post_init__(self):
            made.append(self.segments)
            super().__post_init__()

    monkeypatch.setattr(search, "ScdOutput", Counting)
    net = _network(k=7, seed=2)
    table = build_table(net, _spec(strategy))
    assert len(made) == net.k == len(table.entries)

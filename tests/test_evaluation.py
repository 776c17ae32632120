import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import dynseg

from dynseg.dyngraph import ChangePointSet, DynamicNetwork, Partition, ScdOutput, Snapshot
from dynseg.evaluation import (
    PartitionMetric,
    TimePointRanking,
    change_point_classification,
    paired_t_test,
    partition_similarity,
    ranking_from_cscd,
    sim_b,
    sim_p,
    sim_t,
    vmeasure_components,
    _contingency,
    _expected_mutual_information,
    _mutual_information,
)
from label_graphs import restrict

ALL_METRICS = list(PartitionMetric)


def hand_ari(p1: Partition, p2: Partition) -> float:
    """Independent pair-counting ARI: count pair agreements directly."""
    nodes = sorted(p1.domain)
    a = b = c = d = 0
    for u, v in itertools.combinations(nodes, 2):
        same1 = p1.assignment[u] == p1.assignment[v]
        same2 = p2.assignment[u] == p2.assignment[v]
        if same1 and same2:
            a += 1
        elif same1:
            b += 1
        elif same2:
            c += 1
        else:
            d += 1
    num = 2.0 * (a * d - b * c)
    den = (a + b) * (b + d) + (a + c) * (c + d)
    return num / den if den else 1.0


class TestMetricIdentity:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_identity_is_exactly_one(self, metric):
        cases = [
            Partition.from_clusters([["a", "b"], ["c"]]),
            Partition.from_clusters([["a", "b", "c", "d"]]),  # trivial one-cluster
            Partition.singletons(["a", "b", "c"]),
            Partition.from_clusters([["only"]]),  # single node
        ]
        for p in cases:
            relabeled = Partition({u: cid + 40 for u, cid in p.assignment.items()})
            assert partition_similarity(metric, p, relabeled) == 1.0

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_symmetry_and_relabel_invariance(self, metric):
        rng = np.random.default_rng(7)
        nodes = [f"n{i}" for i in range(12)]
        for _ in range(10):
            p1 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 12))})
            p2 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 3, 12))})
            s12 = partition_similarity(metric, p1, p2)
            s21 = partition_similarity(metric, p2, p1)
            assert s12 == pytest.approx(s21, abs=1e-12)
            shuffled = Partition({u: 107 - cid for u, cid in p2.assignment.items()})
            assert partition_similarity(metric, p1, shuffled) == pytest.approx(s12)

    def test_domain_mismatch_rejected(self):
        p1 = Partition({"a": 0, "b": 0})
        p2 = Partition({"a": 0, "c": 0})
        for metric in ALL_METRICS:
            with pytest.raises(ValueError):
                partition_similarity(metric, p1, p2)


class TestNmi:
    def test_independence_gives_zero(self):
        p1 = Partition.from_clusters([["a", "b", "c", "d"]])
        p2 = Partition.singletons(["a", "b", "c", "d"])
        assert partition_similarity(PartitionMetric.NMI, p1, p2) == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        nodes = [f"n{i}" for i in range(10)]
        for _ in range(20):
            p1 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 10))})
            p2 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 10))})
            v = partition_similarity(PartitionMetric.NMI, p1, p2)
            assert 0.0 <= v <= 1.0


class TestAri:
    def test_printed_crossing_example(self):
        # {{a,b},{c,d}} vs {{a,c},{b,d}}: all contingency cells are 1, and the
        # pair-counting formula gives -1/2 (confirmed by the independent
        # pair-agreement oracle below)
        p1 = Partition.from_clusters([["a", "b"], ["c", "d"]])
        p2 = Partition.from_clusters([["a", "c"], ["b", "d"]])
        expected = hand_ari(p1, p2)
        assert expected == pytest.approx(-0.5)
        assert partition_similarity(PartitionMetric.ARI, p1, p2) == pytest.approx(expected, abs=1e-12)

    def test_minus_one_third_example(self):
        # {{a,b,c},{d}} vs {{a,d},{b},{c}}: index 0, sum_a 3, sum_b 1,
        # expected 3*1/6 = 1/2, max 2 -> (0 - 1/2) / (2 - 1/2) = -1/3
        p1 = Partition.from_clusters([["a", "b", "c"], ["d"]])
        p2 = Partition.from_clusters([["a", "d"], ["b"], ["c"]])
        value = partition_similarity(PartitionMetric.ARI, p1, p2)
        assert value == pytest.approx(-1 / 3, abs=1e-12)
        assert value == pytest.approx(hand_ari(p1, p2), abs=1e-12)

    def test_matches_pair_counting_oracle_randomly(self):
        rng = np.random.default_rng(5)
        nodes = [f"n{i}" for i in range(9)]
        for _ in range(25):
            p1 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 3, 9))})
            p2 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 9))})
            assert partition_similarity(PartitionMetric.ARI, p1, p2) == pytest.approx(
                hand_ari(p1, p2), abs=1e-12
            )


class TestAmi:
    def test_expected_mi_matches_permutation_model(self):
        # EMI equals the mean MI over random relabelings (hypergeometric model)
        labels1 = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        labels2 = np.array([0, 1, 0, 1, 2, 2, 0, 1])
        table = _contingency(labels1, labels2)
        emi = _expected_mutual_information(table, len(labels1))
        rng = np.random.default_rng(11)
        samples = []
        for _ in range(20000):
            perm = rng.permutation(len(labels2))
            t = _contingency(labels1, labels2[perm])
            samples.append(_mutual_information(t, len(labels1)))
        mean = float(np.mean(samples))
        sem = float(np.std(samples) / math.sqrt(len(samples)))
        assert abs(mean - emi) < 4 * sem

    def test_random_partitions_mean_near_zero(self):
        rng = np.random.default_rng(13)
        nodes = [f"n{i}" for i in range(20)]
        for metric in (PartitionMetric.AMI, PartitionMetric.ARI):
            vals = []
            for _ in range(1000):
                p1 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 20))})
                p2 = Partition({u: int(c) for u, c in zip(nodes, rng.integers(0, 4, 20))})
                vals.append(partition_similarity(metric, p1, p2))
            assert abs(float(np.mean(vals))) < 0.02, metric


class TestVMeasure:
    def test_harmonic_mean(self):
        p1 = Partition.from_clusters([["a", "b"], ["c", "d"]])
        p2 = Partition.from_clusters([["a", "b", "c"], ["d"]])
        h, c, vm = vmeasure_components(p1, p2)
        assert vm == pytest.approx(2 * h * c / (h + c))

    def test_refinement_completeness_one(self):
        # p1 refines p2: every p1 cluster fits inside one p2 cluster
        p1 = Partition.from_clusters([["a"], ["b"], ["c", "d"]])
        p2 = Partition.from_clusters([["a", "b"], ["c", "d"]])
        _, completeness, _ = vmeasure_components(p1, p2)
        assert completeness == 1.0


def time_point_partition(output: ScdOutput) -> Partition:
    """Snapshot indices, as strings, grouped by the segment containing them."""
    return Partition({str(j): output.change_points.seg_index(j) for j in range(output.k)})


def _uniform_output(points, k, clusters):
    p = Partition.from_clusters(clusters)
    cps = ChangePointSet(points, k)
    return ScdOutput(cps, tuple([p] * cps.num_segments))


class TestSimT:
    def test_identical_change_points(self):
        o1 = _uniform_output((4, 7), 10, [["a", "b"], ["c"]])
        o2 = _uniform_output((4, 7), 10, [["a", "c"], ["b"]])
        for metric in ALL_METRICS:
            assert sim_t(o1, o2, metric) == 1.0

    def test_time_partition_layout(self):
        o1 = _uniform_output((4, 7), 10, [["a"]])
        tp = time_point_partition(o1)
        assert tp.groups() == frozenset([
            frozenset({"0", "1", "2", "3"}),
            frozenset({"4", "5", "6"}),
            frozenset({"7", "8", "9"}),
        ])

    def test_three_vs_four_cluster_layout(self):
        o1 = _uniform_output((4, 7), 10, [["a"]])
        o2 = _uniform_output((2, 6, 8), 10, [["a"]])
        expected_p1 = Partition.from_clusters([
            ["0", "1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]])
        expected_p2 = Partition.from_clusters([
            ["0", "1"], ["2", "3", "4", "5"], ["6", "7"], ["8", "9"]])
        for metric in ALL_METRICS:
            direct = partition_similarity(metric, expected_p1, expected_p2)
            assert sim_t(o1, o2, metric) == pytest.approx(direct)

    def test_refined_segmentation_has_full_completeness(self):
        o_fine = _uniform_output((3, 6), 9, [["a"]])
        o_coarse = _uniform_output((3,), 9, [["a"]])
        _, completeness, _ = vmeasure_components(
            time_point_partition(o_fine), time_point_partition(o_coarse)
        )
        assert completeness == 1.0

    def test_ami_against_all_singletons_is_exactly_zero(self):
        # l = k puts every snapshot in its own segment: MI equals EMI, so the
        # AMI is 0 without the rounding noise of subtracting the two
        singletons = _uniform_output(tuple(range(1, 16)), 16, [["a"]])
        for points in ((8,), (4, 8, 12), (3, 5, 9, 10, 14)):
            other = _uniform_output(points, 16, [["a"]])
            assert sim_t(singletons, other, PartitionMetric.AMI) == 0.0
            assert sim_t(other, singletons, PartitionMetric.AMI) == 0.0

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            sim_t(_uniform_output((), 2, [["a"]]), _uniform_output((), 3, [["a"]]),
                  PartitionMetric.NMI)


class TestSimP:
    def test_identity(self):
        out = _uniform_output((2,), 5, [["a", "b"], ["c"]])
        for metric in ALL_METRICS:
            assert sim_p(out, out, metric) == 1.0

    def test_matches_per_snapshot_oracle(self):
        p_a = Partition.from_clusters([["a", "b"], ["c", "d"]])
        p_b = Partition.from_clusters([["a", "c"], ["b", "d"]])
        p_c = Partition.from_clusters([["a"], ["b"], ["c", "d"]])
        o1 = ScdOutput(ChangePointSet((2,), 4), (p_a, p_b))
        o2 = ScdOutput(ChangePointSet((1, 3), 4), (p_b, p_c, p_a))
        for metric in ALL_METRICS:
            direct = sum(
                partition_similarity(
                    metric, o1.partition_at(j), o2.partition_at(j)
                )
                for j in range(4)
            ) / 4
            assert sim_p(o1, o2, metric) == pytest.approx(direct)

    def test_segment_indexing_mapping(self):
        # snapshot 2 compares o1's first partition with o2's second
        p0 = Partition.from_clusters([["a", "b"], ["c", "d"]])
        p1 = Partition.from_clusters([["a", "c"], ["b", "d"]])
        o1 = ScdOutput(ChangePointSet((), 3), (p0,))
        o2 = ScdOutput(ChangePointSet((2,), 3), (p0, p1))
        val = sim_p(o1, o2, PartitionMetric.ARI)
        per = (1.0 + 1.0 + hand_ari(p0, p1)) / 3
        assert val == pytest.approx(per)

    def test_restriction_to_snapshot_nodes(self):
        # partitions with different domains are compared on V_j when the
        # network is supplied
        g = Snapshot([], [("a", "b")])
        net = DynamicNetwork([g])
        p_big = Partition.from_clusters([["a", "b", "z"]])
        p_small = Partition.from_clusters([["a", "b"]])
        o1 = ScdOutput(ChangePointSet((), 1), (p_big,))
        o2 = ScdOutput(ChangePointSet((), 1), (p_small,))
        assert sim_p(o1, o2, PartitionMetric.NMI, net) == 1.0


class TestSimB:
    def test_identity(self):
        out = _uniform_output((2,), 4, [["a", "b"], ["c"]])
        for metric in ALL_METRICS:
            assert sim_b(out, out, metric) == 1.0

    def test_single_element_is_one(self):
        # one node, one snapshot: a single node-time element on both sides
        o1 = _uniform_output((), 1, [["a"]])
        o2 = ScdOutput(ChangePointSet((), 1), (Partition({"a": 3}),))
        for metric in ALL_METRICS:
            assert sim_b(o1, o2, metric) == 1.0

    def test_k2_brute_force_contingency(self):
        # same node partition, k=2; one output sees one segment, the other two
        clusters = [["a", "b"], ["c", "d"]]
        o1 = _uniform_output((), 2, clusters)
        o2 = _uniform_output((1,), 2, clusters)
        got = sim_b(o1, o2, PartitionMetric.NMI)
        # independent computation over the 8 node-time elements:
        # o1 clusters: {a,b}x{0,1}, {c,d}x{0,1}; o2 splits each by time
        n = 8.0
        h1 = -2 * (4 / n) * math.log(4 / n)
        h2 = -4 * (2 / n) * math.log(2 / n)
        mi = 0.0
        for _ in range(4):  # four cells of size 2: cells (4-cluster, 2-cluster)
            mi += (2 / n) * math.log(n * 2 / (4 * 2))
        expected = mi / (0.5 * (h1 + h2))
        assert got == pytest.approx(expected)


class TestRanking:
    def _table(self, per_l_points, k):
        # minimal stand-in carrying only what ranking_from_cscd reads
        class Entry:
            def __init__(self, points):
                self.output = _uniform_output(points, k, [["a"]])

        class Table:
            def __init__(self):
                self.k = k
                self.entries = {l: Entry(pts) for l, pts in per_l_points.items()}

        return Table()

    def test_k2_single_candidate(self):
        table = self._table({1: (), 2: (1,)}, 2)
        ranking = ranking_from_cscd(table)
        assert ranking.scores == {1: 2.0}

    def test_nested_tables_insertion_order(self):
        table = self._table({1: (), 2: (3,), 3: (3, 5), 4: (1, 3, 5)}, 6)
        ranking = ranking_from_cscd(table)
        assert ranking.scores == {3: 2.0, 5: 3.0, 1: 4.0, 2: 6.0, 4: 6.0}
        assert ranking.ordered() == [3, 5, 1, 2, 4]

    def test_point_absent_until_k_gets_worst_score(self):
        table = self._table({1: (), 2: (2,), 3: (2, 3), 4: (1, 2, 3)}, 4)
        ranking = ranking_from_cscd(table)
        assert ranking.scores[1] == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimePointRanking({1: 1.0}, k=3)


class TestClassification:
    def test_perfect_ranking(self):
        ranking = TimePointRanking({1: 5.0, 2: 1.0, 3: 6.0, 4: 7.0, 5: 8.0}, 6)
        scores = change_point_classification(ranking, [2])
        assert scores.aupr == 1.0
        assert scores.max_f == 1.0
        assert scores.auroc == 1.0

    def test_worst_ranking_single_truth(self):
        # the one true point ranked last of 5: only the final sweep step
        # reaches recall 1 at precision 1/5
        ranking = TimePointRanking({1: 1, 2: 2, 3: 3, 4: 4, 5: 5}, 6)
        scores = change_point_classification(ranking, [5])
        assert scores.aupr == pytest.approx(1 / 5)
        assert scores.auroc == pytest.approx(0.0)

    def test_reversal_flips_auroc(self):
        k = 7
        truth = [2, 5]
        fwd = TimePointRanking({t: float(t) for t in range(1, k)}, k)
        rev = TimePointRanking({t: float(k - t) for t in range(1, k)}, k)
        s_fwd = change_point_classification(fwd, truth)
        s_rev = change_point_classification(rev, truth)

        def brute_auroc(order):
            pos = set(truth)
            num_pos, num_neg = len(pos), (k - 1) - len(pos)
            pts = [(0.0, 0.0)]
            tp = fp = 0
            for t in order:
                if t in pos:
                    tp += 1
                else:
                    fp += 1
                pts.append((fp / num_neg, tp / num_pos))
            area = 0.0
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                area += (x1 - x0) * (y1 + y0) / 2
            return area

        assert s_fwd.auroc == pytest.approx(brute_auroc(fwd.ordered()))
        assert s_rev.auroc == pytest.approx(brute_auroc(rev.ordered()))

    def test_monotone_transform_invariance(self):
        k = 9
        truth = [3, 6]
        base = {t: float((t * 5) % 11) for t in range(1, k)}
        r1 = TimePointRanking(base, k)
        r2 = TimePointRanking({t: 2.0 * s + 7.0 for t, s in base.items()}, k)
        r3 = TimePointRanking({t: math.exp(s) for t, s in base.items()}, k)
        s1 = change_point_classification(r1, truth)
        for other in (r2, r3):
            s = change_point_classification(other, truth)
            assert s == s1

    def test_degenerate_truth_rejected(self):
        ranking = TimePointRanking({1: 1.0, 2: 2.0}, 3)
        with pytest.raises(ValueError):
            change_point_classification(ranking, [])
        with pytest.raises(ValueError):
            change_point_classification(ranking, [1, 2])

    def test_ties_broken_by_smaller_t(self):
        ranking = TimePointRanking({1: 2.0, 2: 2.0, 3: 2.0}, 4)
        assert ranking.ordered() == [1, 2, 3]
        scores = change_point_classification(ranking, [1])
        assert scores.aupr == 1.0


class TestSimConsistency:
    def test_sim_b_ordering_mostly_agrees_with_sim_p_for_shared_t(self):
        # outputs sharing identical change points: ordering by sim_b should
        # agree with ordering by sim_p on the vast majority of pairs
        from dynseg.generator import GeneratorConfig, generate

        cfg = GeneratorConfig(k=6, l=3, n=30, c_min=5, c_in=20, c_out=4, seed=31)
        net, truth = generate(cfg)
        rng = np.random.default_rng(17)
        nodes = list(net.labels)
        outputs = []
        for level in range(24):
            # one corruption level per output, applied to every segment
            flips = level + 1
            parts = []
            for p in truth.partitions:
                assignment = dict(p.assignment)
                ids = sorted(set(p.assignment.values()))
                for u in rng.choice(nodes, size=flips, replace=False):
                    assignment[str(u)] = int(ids[rng.integers(0, len(ids))])
                parts.append(Partition(assignment))
            outputs.append(ScdOutput(truth.change_points, tuple(parts)))
        scored = [
            (sim_p(o, truth, PartitionMetric.NMI, net),
             sim_b(o, truth, PartitionMetric.NMI, net))
            for o in outputs
        ]
        agree = total = 0
        for (p1, b1), (p2, b2) in itertools.combinations(scored, 2):
            if p1 == p2 or b1 == b2:
                continue
            total += 1
            agree += (p1 < p2) == (b1 < b2)
        assert total >= 100
        assert agree / total >= 0.95


OUTPUT_NODES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def output_pairs(draw):
    """Two outputs over the same k snapshots and the same node set."""
    k = draw(st.integers(1, 5))
    nodes = draw(st.lists(st.sampled_from(OUTPUT_NODES), unique=True, min_size=1))

    def output():
        points = draw(st.sets(st.integers(1, k - 1))) if k > 1 else set()
        ids = st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes))
        partitions = tuple(
            Partition(dict(zip(nodes, draw(ids)))) for _ in range(len(points) + 1)
        )
        return ScdOutput(ChangePointSet(tuple(sorted(points)), k), partitions)

    return output(), output(), draw(st.permutations(range(4)))


def _relabelled(output: ScdOutput, perm) -> ScdOutput:
    partitions = tuple(
        Partition({u: 10 + perm[c] for u, c in p.assignment.items()})
        for p in output.partitions
    )
    return ScdOutput(output.change_points, partitions)


def reference_sim_p(o1, o2, metric, network=None):
    """sim_p through restricted label-keyed partitions."""
    total = 0.0
    for j in range(o1.k):
        p1, p2 = o1.partition_at(j), o2.partition_at(j)
        scope = network[j].nodes if network is not None else p1.domain & p2.domain
        q1, q2 = restrict(p1, scope), restrict(p2, scope)
        total += partition_similarity(metric, q1, q2) if q1.assignment else 1.0
    return total / o1.k


def reference_sim_b(o1, o2, metric, network=None):
    """sim_b through label-keyed node-time partitions, keys "<node>\x1f<t>"."""
    elements = []
    for t in range(o1.k):
        p1, p2 = o1.partition_at(t), o2.partition_at(t)
        scope = network[t].nodes if network is not None else p1.domain & p2.domain
        elements += [(u, t) for u in sorted(scope)]

    def node_time(output):
        keys = {}
        return Partition({
            f"{u}\x1f{t}": keys.setdefault(
                (output.change_points.seg_index(t), output.partition_at(t).assignment[u]),
                len(keys),
            )
            for u, t in elements
        })

    return partition_similarity(metric, node_time(o1), node_time(o2))


@st.composite
def network_output_pairs(draw):
    """A network and two outputs whose partitions cover each segment's nodes,
    plus nodes of other snapshots or of none."""
    k = draw(st.integers(1, 6))
    nodes = st.lists(st.sampled_from(OUTPUT_NODES), unique=True, min_size=1)
    network = DynamicNetwork([Snapshot(draw(nodes)) for _ in range(k)])

    def output():
        points = sorted(draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
        partitions = []
        for start, end in ChangePointSet(tuple(points), k).segmentation():
            held = set().union(*(network[j].nodes for j in range(start, end + 1)))
            domain = sorted(held | set(draw(st.lists(st.sampled_from(OUTPUT_NODES + ["x"])))))
            ids = draw(st.lists(st.integers(0, 3), min_size=len(domain), max_size=len(domain)))
            partitions.append(Partition(dict(zip(domain, ids))))
        return ScdOutput(ChangePointSet(tuple(points), k), tuple(partitions))

    return network, output(), output()


@settings(max_examples=150)
@given(network_output_pairs())
def test_sim_p_and_sim_b_match_label_keyed_references(case):
    """Bit-equal to the label-keyed loops, with the network and without it;
    k <= 9 keeps the element order of "<node>\x1f<t>" keys numeric in t."""
    network, o1, o2 = case
    for metric in ALL_METRICS:
        for net in (network, None):
            assert sim_p(o1, o2, metric, net) == reference_sim_p(o1, o2, metric, net)
            assert sim_b(o1, o2, metric, net) == reference_sim_b(o1, o2, metric, net)


def test_sim_p_and_sim_b_reject_an_uncovered_snapshot_node():
    network = DynamicNetwork([Snapshot(["a", "b"]), Snapshot(["a", "c"])])
    out = _uniform_output((), 2, [["a", "b"]])  # misses c, which snapshot 1 holds
    for sim in (sim_p, sim_b):
        with pytest.raises(ValueError, match="misses a node of snapshot 1"):
            sim(out, out, PartitionMetric.NMI, network)


@settings(max_examples=150)
@given(output_pairs())
def test_similarity_invariants(pair):
    """Identity gives 1; swapping the outputs or relabelling clusters changes nothing."""
    o1, o2, perm = pair
    r1 = _relabelled(o1, perm)
    for sim in (sim_t, sim_p, sim_b):
        for metric in ALL_METRICS:
            assert sim(o1, o1, metric) == 1.0
            value = sim(o1, o2, metric)
            assert sim(o2, o1, metric) == pytest.approx(value, rel=1e-9, abs=1e-12)
            assert sim(r1, o2, metric) == pytest.approx(value, rel=1e-9, abs=1e-12)


class TestPairedTTest:
    def test_identical_samples(self):
        res = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.p_value == 1.0
        assert not res.degenerate

    def test_constant_nonzero_difference_flagged(self):
        res = paired_t_test([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        assert res.degenerate
        assert res.p_value == 0.0

    def test_against_quadrature_oracle(self):
        xs = [12.1, 14.3, 11.8, 13.0, 12.7, 15.2, 13.9, 12.4, 14.8, 13.3]
        ys = [11.4, 13.9, 12.0, 12.1, 12.5, 14.0, 13.2, 12.9, 13.5, 12.8]
        res = paired_t_test(xs, ys)
        n = len(xs)
        diffs = np.array(xs) - np.array(ys)
        t = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(n))
        df = n - 1

        def pdf(x):
            return (
                math.gamma((df + 1) / 2)
                / (math.sqrt(df * math.pi) * math.gamma(df / 2))
                * (1 + x * x / df) ** (-(df + 1) / 2)
            )

        tail, _ = integrate.quad(pdf, abs(t), np.inf)
        assert res.p_value == pytest.approx(2 * tail, abs=1e-6)
        assert res.statistic == pytest.approx(t)

    def test_p_value_equals_scipy_t_distribution(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5, 12, 40):
            for shift in (0.0, 0.3, 2.0):
                xs = rng.normal(size=n) + shift
                ys = rng.normal(size=n)
                res = paired_t_test(xs.tolist(), ys.tolist())
                assert res.p_value == 2.0 * float(stats.t.sf(abs(res.statistic), n - 1))

    def test_import_does_not_load_scipy_stats(self):
        src = os.path.dirname(os.path.dirname(dynseg.__file__))
        code = "import sys, dynseg.cli; sys.exit(int('scipy.stats' in sys.modules))"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_does_not_load_scipy(self):
        # detect never needs scipy; evaluation imports it where it is used
        src = os.path.dirname(os.path.dirname(dynseg.__file__))
        code = ("import sys, dynseg.cli; "
                "sys.exit(int(any(m.split('.')[0] == 'scipy' for m in sys.modules)))")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

import itertools
import math
import os
import subprocess
import sys
import textwrap
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import dynseg

from dynseg.dyngraph import (
    DynamicNetwork, Partition, ScdOutput, Snapshot, dense_codes, load_output,
)
from dynseg.evaluation import (
    PartitionMetric,
    TimePointRanking,
    change_point_classification,
    paired_t_test,
    ranking_from_cscd,
    sim_b,
    sim_p,
    sim_t,
    _beta_fraction,
    _contingency,
    _expected_mutual_information,
    _information,
    _mutual_information,
    _similarity,
    _t_two_sided_p,
)
from label_graphs import (
    expected_mutual_information_gammaln, from_clusters, output_of, partition_at,
    partition_similarity, restrict, segment_at, segments_of, sim_t_per_snapshot, singletons,
    vmeasure_components,
)

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
            from_clusters([["a", "b"], ["c"]]),
            from_clusters([["a", "b", "c", "d"]]),  # trivial one-cluster
            singletons(["a", "b", "c"]),
            from_clusters([["only"]]),  # single node
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
        p1 = from_clusters([["a", "b", "c", "d"]])
        p2 = singletons(["a", "b", "c", "d"])
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
        p1 = from_clusters([["a", "b"], ["c", "d"]])
        p2 = from_clusters([["a", "c"], ["b", "d"]])
        expected = hand_ari(p1, p2)
        assert expected == pytest.approx(-0.5)
        assert partition_similarity(PartitionMetric.ARI, p1, p2) == pytest.approx(expected, abs=1e-12)

    def test_minus_one_third_example(self):
        # {{a,b,c},{d}} vs {{a,d},{b},{c}}: index 0, sum_a 3, sum_b 1,
        # expected 3*1/6 = 1/2, max 2 -> (0 - 1/2) / (2 - 1/2) = -1/3
        p1 = from_clusters([["a", "b", "c"], ["d"]])
        p2 = from_clusters([["a", "d"], ["b"], ["c"]])
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

    def test_expected_mi_matches_gammaln_oracle(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 8, 13, 30, 60, 120, 200):
            for _ in range(12):
                r, c = rng.integers(1, min(n, 12) + 1, size=2)
                table = _contingency(
                    dense_codes(rng.integers(0, r, n)), dense_codes(rng.integers(0, c, n))
                )
                assert _expected_mutual_information(table, n) == pytest.approx(
                    expected_mutual_information_gammaln(table, n), rel=1e-12, abs=0.0
                )

    def test_ami_matches_gammaln_oracle_on_large_tables(self):
        # log-factorials near n log n carry absolute rounding errors that grow
        # with n, so at this size the EMIs agree to about 1e-11 relative; the
        # AMI they give agrees to 1e-12
        rng = np.random.default_rng(19)
        for n, r, c in ((1_000, 7, 12), (3_000, 20, 3), (20_000, 30, 25)):
            c1, c2 = rng.integers(0, r, n), rng.integers(0, c, n)
            table = _contingency(dense_codes(c1), dense_codes(c2))
            h1, h2, mi = _information(table, n)
            emi = expected_mutual_information_gammaln(table, n)
            oracle = (mi - emi) / (0.5 * (h1 + h2) - emi)
            assert _similarity(PartitionMetric.AMI, c1, c2) == pytest.approx(
                oracle, rel=0.0, abs=1e-12
            )

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
        p1 = from_clusters([["a", "b"], ["c", "d"]])
        p2 = from_clusters([["a", "b", "c"], ["d"]])
        h, c, vm = vmeasure_components(p1, p2)
        assert vm == pytest.approx(2 * h * c / (h + c))

    def test_refinement_completeness_one(self):
        # p1 refines p2: every p1 cluster fits inside one p2 cluster
        p1 = from_clusters([["a"], ["b"], ["c", "d"]])
        p2 = from_clusters([["a", "b"], ["c", "d"]])
        _, completeness, _ = vmeasure_components(p1, p2)
        assert completeness == 1.0


def time_point_partition(output: ScdOutput) -> Partition:
    """Snapshot indices, as strings, grouped by the segment containing them."""
    return Partition({str(j): segment_at(output, j) for j in range(output.k)})


def _uniform_output(points, k, clusters):
    p = from_clusters(clusters)
    return output_of(points, k, [p] * (len(points) + 1))


class TestSimT:
    def test_identical_change_points(self):
        o1 = _uniform_output((4, 7), 10, [["a", "b"], ["c"]])
        o2 = _uniform_output((4, 7), 10, [["a", "c"], ["b"]])
        for metric in ALL_METRICS:
            assert sim_t(o1, o2, metric) == 1.0

    def test_time_partition_layout(self):
        o1 = _uniform_output((4, 7), 10, [["a"]])
        tp = time_point_partition(o1)
        assert tp == from_clusters(["0123", "456", "789"])

    def test_three_vs_four_cluster_layout(self):
        o1 = _uniform_output((4, 7), 10, [["a"]])
        o2 = _uniform_output((2, 6, 8), 10, [["a"]])
        expected_p1 = from_clusters([
            ["0", "1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]])
        expected_p2 = from_clusters([
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

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_per_snapshot_oracle(self, data):
        """Scored once per overlap of two segments, weighted by its snapshot
        count, bit-equal to one code per snapshot."""
        k = data.draw(st.integers(1, 40))

        def output():
            cuts = data.draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
            return _uniform_output(tuple(t for t, cut in enumerate(cuts, 1) if cut), k, [["a"]])

        o1, o2 = output(), output()
        for metric in ALL_METRICS:
            assert sim_t(o1, o2, metric) == sim_t_per_snapshot(o1, o2, metric)


class TestSimP:
    def test_identity(self):
        out = _uniform_output((2,), 5, [["a", "b"], ["c"]])
        for metric in ALL_METRICS:
            assert sim_p(out, out, metric) == 1.0

    def test_matches_per_snapshot_oracle(self):
        p_a = from_clusters([["a", "b"], ["c", "d"]])
        p_b = from_clusters([["a", "c"], ["b", "d"]])
        p_c = from_clusters([["a"], ["b"], ["c", "d"]])
        o1 = ScdOutput(((0, 1), (2, 3)), (p_a, p_b))
        o2 = ScdOutput(((0, 0), (1, 2), (3, 3)), (p_b, p_c, p_a))
        for metric in ALL_METRICS:
            direct = sum(
                partition_similarity(
                    metric, partition_at(o1, j), partition_at(o2, j)
                )
                for j in range(4)
            ) / 4
            assert sim_p(o1, o2, metric) == pytest.approx(direct)

    def test_segment_indexing_mapping(self):
        # snapshot 2 compares o1's first partition with o2's second
        p0 = from_clusters([["a", "b"], ["c", "d"]])
        p1 = from_clusters([["a", "c"], ["b", "d"]])
        o1 = ScdOutput(((0, 2),), (p0,))
        o2 = ScdOutput(((0, 1), (2, 2)), (p0, p1))
        val = sim_p(o1, o2, PartitionMetric.ARI)
        per = (1.0 + 1.0 + hand_ari(p0, p1)) / 3
        assert val == pytest.approx(per)

    def test_restriction_to_snapshot_nodes(self):
        # partitions with different domains are compared on V_j when the
        # network is supplied
        g = Snapshot([], [("a", "b")])
        net = DynamicNetwork([g])
        p_big = from_clusters([["a", "b", "z"]])
        p_small = from_clusters([["a", "b"]])
        o1 = ScdOutput(((0, 0),), (p_big,))
        o2 = ScdOutput(((0, 0),), (p_small,))
        assert sim_p(o1, o2, PartitionMetric.NMI, net) == 1.0


class TestSimB:
    def test_identity(self):
        out = _uniform_output((2,), 4, [["a", "b"], ["c"]])
        for metric in ALL_METRICS:
            assert sim_b(out, out, metric) == 1.0

    def test_single_element_is_one(self):
        # one node, one snapshot: a single node-time element on both sides
        o1 = _uniform_output((), 1, [["a"]])
        o2 = ScdOutput(((0, 0),), (Partition({"a": 3}),))
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
            outputs.append(ScdOutput(truth.segments, tuple(parts)))
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
        return output_of(sorted(points), k, partitions)

    return output(), output(), draw(st.permutations(range(4)))


def _relabelled(output: ScdOutput, perm) -> ScdOutput:
    partitions = tuple(
        Partition({u: 10 + perm[c] for u, c in p.assignment.items()})
        for p in output.partitions
    )
    return ScdOutput(output.segments, partitions)


def reference_sim_p(o1, o2, metric, network=None):
    """sim_p through restricted label-keyed partitions."""
    total = 0.0
    for j in range(o1.k):
        p1, p2 = partition_at(o1, j), partition_at(o2, j)
        scope = network[j].nodes if network is not None else p1.domain & p2.domain
        q1, q2 = restrict(p1, scope), restrict(p2, scope)
        total += partition_similarity(metric, q1, q2) if q1.assignment else 1.0
    return total / o1.k


def reference_sim_b(o1, o2, metric, network=None):
    """sim_b through label-keyed node-time partitions, keys "<node>\x1f<t>"."""
    elements = []
    for t in range(o1.k):
        p1, p2 = partition_at(o1, t), partition_at(o2, t)
        scope = network[t].nodes if network is not None else p1.domain & p2.domain
        elements += [(u, t) for u in sorted(scope)]

    def node_time(output):
        keys = {}
        return Partition({
            f"{u}\x1f{t}": keys.setdefault(
                (segment_at(output, t), partition_at(output, t).assignment[u]),
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
        for start, end in segments_of(points, k):
            held = set().union(*(network[j].nodes for j in range(start, end + 1)))
            domain = sorted(held | set(draw(st.lists(st.sampled_from(OUTPUT_NODES + ["x"])))))
            ids = draw(st.lists(st.integers(0, 3), min_size=len(domain), max_size=len(domain)))
            partitions.append(Partition(dict(zip(domain, ids))))
        return output_of(points, k, partitions)

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


def test_sim_p_and_sim_b_cost_follows_segments_not_snapshots():
    """A million snapshots in two segments per output: scored per overlap of
    two segments, with one sim_p addition per snapshot and sim_b weighted by
    the snapshots each overlap spans, bit-equal to scoring every snapshot."""
    k = 1_000_001
    pred = load_output(
        "segment 0 399999\ncluster 0: a b\ncluster 1: c\n"
        "segment 400000 1000000\ncluster 0: a\ncluster 1: b c\n"
    )
    truth = load_output(
        "segment 0 0\ncluster 0: a\ncluster 1: b\ncluster 2: c\n"
        "segment 1 1000000\ncluster 0: a b\ncluster 1: c\n"
    )
    metric = PartitionMetric.NMI
    started = time.perf_counter()
    got_p, got_b = sim_p(pred, truth, metric), sim_b(pred, truth, metric)
    assert time.perf_counter() - started < 2.0  # 80 s snapshot by snapshot

    total = 0.0
    for lo, hi, s1, s2 in ((0, 0, 0, 0), (1, 399_999, 0, 1), (400_000, 1_000_000, 1, 1)):
        value = partition_similarity(metric, pred.partitions[s1], truth.partitions[s2])
        for _ in range(hi - lo + 1):
            total += value
    assert got_p == total / k

    # node-time elements node by node, each in time order; codes distinct across segments
    def node_time_codes(output, segment_of_t):
        first, second = (p.codes for p in output.partitions)
        return np.concatenate([np.where(segment_of_t, 3 + second[u], first[u]) for u in range(3)])

    c1 = node_time_codes(pred, np.arange(k) >= 400_000)
    c2 = node_time_codes(truth, np.arange(k) >= 1)
    assert got_b == _similarity(metric, c1, c2)


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


def mpmath_t_tail(t: float, df: int):
    """P(|T| >= |t|) at 50 digits: I_x(df/2, 1/2), x = df/(df + t^2), from the exact float t."""
    with mpmath.workdps(50):
        x = df / (df + mpmath.mpf(t) ** 2)
        return mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True)


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

    def test_p_value_matches_mpmath_oracle(self):
        """Within 1e-12 relative, plus one subnormal step for tails below
        2.2e-308, of the tail at 50 digits, for df 1..500 and |t| 1e-9..1e8."""
        # the two values scipy.special.stdtr gets wrong: 0.9999999905 and 0
        assert mpmath.almosteq(mpmath_t_tail(7.47e-9, 1), mpmath.mpf("0.99999999524445"), 1e-14)
        assert mpmath.almosteq(mpmath_t_tail(8e7, 44), mpmath.mpf("3.1459064823615e-313"), 1e-13)
        ts = [m * 10.0 ** e for e in range(-9, 8) for m in (1.0, 1.7, 3.1, 5.3)]
        cases = [(t, df) for df in [*range(1, 31), *range(37, 501, 29), 500] for t in ts + [1e8]]
        cases += [(7.47e-9, 1), (8e7, 44), (-2.5, 7), (-1e8, 3)]
        for t, df in cases:
            exact = float(mpmath_t_tail(t, df))
            assert abs(_t_two_sided_p(t, df) - exact) <= 1e-12 * exact + math.ulp(0.0), (t, df)

    def test_p_value_through_the_test_matches_mpmath_oracle(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5, 12, 40):
            for shift in (0.0, 0.3, 2.0):
                xs, ys = rng.normal(size=n) + shift, rng.normal(size=n)
                res = paired_t_test(xs.tolist(), ys.tolist())
                exact = float(mpmath_t_tail(res.statistic, n - 1))
                assert res.p_value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_non_finite_samples_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                paired_t_test([1.0, bad, 2.0], [0.5, 1.0, 1.5])
            with pytest.raises(ValueError, match="finite"):
                paired_t_test([1.0, 2.0, 3.0], [0.5, bad, 1.5])

    def test_tail_edge_values(self):
        for df in (1, 2, 44, 500):
            assert _t_two_sided_p(1e155, df) == 0.0  # t * t overflows
            assert _t_two_sided_p(-1e155, df) == 0.0
            assert _t_two_sided_p(0.0, df) == 1.0
            assert math.isnan(_t_two_sided_p(math.nan, df))  # returns: the fraction stops
        assert math.isnan(_beta_fraction(2.5, 0.5, math.nan))

    def test_import_does_not_load_scipy_stats(self):
        src = os.path.dirname(os.path.dirname(dynseg.__file__))
        code = "import sys, dynseg.cli; sys.exit(int('scipy.stats' in sys.modules))"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_does_not_load_scipy(self, tmp_path):
        # scoring runs on numpy alone: evaluate with every metric and a
        # benchmark whose t-tests have nonzero variance load no scipy module
        src = os.path.dirname(os.path.dirname(dynseg.__file__))
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            from dynseg.cli import main
            d = {str(tmp_path)!r}
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["generate", "--output", d + "/net.txt", "--truth", d + "/truth.txt",
                             "--k", "6", "--n", "20", "--l", "2"]) == 0
                assert main(["detect", "--input", d + "/net.txt", "--output", d + "/pred.txt",
                             "--consensus", "sum-lpa"]) == 0
                assert main(["evaluate", "--pred", d + "/pred.txt", "--truth", d + "/truth.txt",
                             "--metrics", "nmi,ami,ari,vm"]) == 0
                assert main(["benchmark", "--k", "6", "--n", "20", "--l-values", "2,3",
                             "--instances", "3", "--jobs", "1", "--compare",
                             "bic:sum-lpa:bottomup,modularity:sum-lpa:topdown"]) == 0
            assert "sim_b_ami" in out.getvalue() and "p=0.371359" in out.getvalue()
            sys.exit(int(any(m.split('.')[0] == 'scipy' for m in sys.modules)))
        """)
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

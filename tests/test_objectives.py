import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import dynseg
from dynseg.dyngraph import (
    ChangePointSet,
    DynamicNetwork,
    Partition,
    ScdOutput,
    Snapshot,
)
from dynseg.generator import GeneratorConfig, generate
from dynseg.objectives import (
    Criterion,
    FitMeasure,
    _segment_counts,
    log_likelihood,
    num_observations,
    num_parameters,
    q_b,
    q_p,
    segment_log_likelihood,
    snapshot_fit,
)
from label_graphs import restrict

TRIANGLES = Snapshot([], [("a", "b"), ("b", "c"), ("a", "c"),
                          ("d", "e"), ("e", "f"), ("d", "f")])
TRI_SPLIT = Partition.from_clusters([["a", "b", "c"], ["d", "e", "f"]])
TRI_ONE = Partition.from_clusters([["a", "b", "c", "d", "e", "f"]])


def fit_of(fit: FitMeasure, p: Partition, g: Snapshot) -> float:
    """The fit of p on the one-snapshot network [g]."""
    return snapshot_fit(fit, DynamicNetwork([g]), 0, 0, p)[0]


def modularity_of(p: Partition, g: Snapshot) -> float:
    return fit_of(FitMeasure.MODULARITY, p, g)


def loss_of(kind: FitMeasure, p: Partition, g: Snapshot) -> float:
    return 1.0 - fit_of(kind, p, g)


def _single(snapshot: Snapshot, partition: Partition) -> tuple[DynamicNetwork, ScdOutput]:
    net = DynamicNetwork([snapshot])
    out = ScdOutput(ChangePointSet((), 1), (partition,))
    return net, out


class TestModularity:
    def test_two_triangles_split(self):
        # 2 * (3/6 - (6/12)^2) = 0.5
        assert modularity_of(TRI_SPLIT, TRIANGLES) == pytest.approx(0.5)

    def test_one_cluster_is_zero(self):
        assert modularity_of(TRI_ONE, TRIANGLES) == pytest.approx(0.0)

    def test_split_beats_merged(self):
        assert modularity_of(TRI_SPLIT, TRIANGLES) > modularity_of(TRI_ONE, TRIANGLES)

    def test_one_cluster_zero_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            nodes = [f"v{i}" for i in range(n)]
            edges = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            g = Snapshot(nodes, edges)
            if len(g.edges) == 0:
                continue
            p = Partition.from_clusters([nodes])
            assert modularity_of(p, g) == pytest.approx(0.0, abs=1e-12)

    def test_zero_edge_snapshot(self):
        g = Snapshot(["a", "b"], [])
        assert modularity_of(Partition.singletons(["a", "b"]), g) == 0.0

    def test_restriction_to_snapshot_nodes(self):
        p = Partition.from_clusters([["a", "b", "zz"], ["c", "d"]])
        g = Snapshot([], [("a", "b"), ("c", "d")])
        # zz not in g; value computed on the restriction
        assert modularity_of(p, g) == pytest.approx(0.5)

    def test_missing_node_is_error(self):
        p = Partition.from_clusters([["a"]])
        g = Snapshot([], [("a", "b")])
        with pytest.raises(ValueError):
            modularity_of(p, g)

    def test_missing_node_on_edgeless_snapshot_is_error(self):
        p = Partition.from_clusters([["a"]])
        for fit in FitMeasure:
            with pytest.raises(ValueError):
                fit_of(fit, p, Snapshot(["a", "b"]))

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_networkx(self, data):
        nx = pytest.importorskip("networkx")
        labels = [f"v{i}" for i in range(10)]
        nodes = data.draw(st.lists(st.sampled_from(labels), unique=True, min_size=2))
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
        # the partition also labels nodes the snapshot does not hold
        cids = data.draw(st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels)))
        p = Partition(dict(zip(labels, cids)))
        g = Snapshot(nodes, edges)
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        communities = restrict(p, g.nodes).clusters().values()
        assert modularity_of(p, g) == pytest.approx(nx.community.modularity(graph, communities))


class TestLossFits:
    def test_conductance_two_triangles(self):
        assert loss_of(FitMeasure.CONDUCTANCE, TRI_SPLIT, TRIANGLES) == 0.0

    def test_avgodf_two_triangles(self):
        assert loss_of(FitMeasure.AVERAGE_ODF, TRI_SPLIT, TRIANGLES) == 0.0

    def test_conductance_path(self):
        # path a-b-c split {a,b} {c}: 1/2 * (1/(2*1+2) + 1/(2*0+1)) = 0.625
        g = Snapshot([], [("a", "b"), ("b", "c")])
        p = Partition.from_clusters([["a", "b"], ["c"]])
        assert loss_of(FitMeasure.CONDUCTANCE, p, g) == pytest.approx(0.625)

    def test_normalized_cut_path(self):
        # adds b_c / (2(m - m_c) + n_c): 1/2 * ((1/4 + 1/4) + (1/1 + 1/5))
        g = Snapshot([], [("a", "b"), ("b", "c")])
        p = Partition.from_clusters([["a", "b"], ["c"]])
        expected = 0.5 * ((1 / 4 + 1 / (2 * (2 - 1) + 2)) + (1 / 1 + 1 / (2 * 2 + 1)))
        assert loss_of(FitMeasure.NORMALIZED_CUT, p, g) == pytest.approx(expected)

    def test_avgodf_hand_example(self):
        # star a-(b,c,d) plus edge b-c; clusters {a,b,c} {d}
        g = Snapshot([], [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])
        p = Partition.from_clusters([["a", "b", "c"], ["d"]])
        # a: 1/3 outside, b: 0, c: 0 -> cluster mean 1/9; d: 1/1 -> mean 1
        assert loss_of(FitMeasure.AVERAGE_ODF, p, g) == pytest.approx(
            0.5 * (1 / 9 + 1.0)
        )

    def test_degree_zero_node_contributes_zero(self):
        g = Snapshot(["z"], [("a", "b")])
        p = Partition.from_clusters([["a", "b", "z"]])
        assert loss_of(FitMeasure.AVERAGE_ODF, p, g) == 0.0

    def test_zero_edge_snapshot_scores_zero(self):
        g = Snapshot(["a", "b"], [])
        for kind in (FitMeasure.CONDUCTANCE, FitMeasure.NORMALIZED_CUT,
                     FitMeasure.AVERAGE_ODF):
            assert loss_of(kind, Partition.singletons(["a", "b"]), g) == 0.0

    def test_snapshot_fit_orientation(self):
        g = Snapshot([], [("a", "b"), ("b", "c")])
        p = Partition.from_clusters([["a", "b"], ["c"]])
        # one value per snapshot in time order: 1 - 0.625, then 1 - 0 (no edges)
        net = DynamicNetwork([g, Snapshot(["a", "c"]), g])
        assert snapshot_fit(FitMeasure.CONDUCTANCE, net, 0, 2, p) == pytest.approx(
            [0.375, 1.0, 0.375]
        )
        assert snapshot_fit(FitMeasure.CONDUCTANCE, net, 1, 2, p) == pytest.approx([1.0, 0.375])

    def test_against_textbook_conductance(self):
        # sanity only: the shipped denominator uses the cluster's node count;
        # the textbook variant (b_c/(2 m_c + b_c)) must order partitions the
        # same way on clear-cut cases and both vanish on boundary-free ones
        def textbook(p, g):
            restricted = restrict(p, g.nodes)
            clusters = restricted.clusters()
            m_c = {cid: 0 for cid in clusters}
            b_c = {cid: 0 for cid in clusters}
            for u, v in g.edges:
                cu, cv = restricted.assignment[u], restricted.assignment[v]
                if cu == cv:
                    m_c[cu] += 1
                else:
                    b_c[cu] += 1
                    b_c[cv] += 1
            total = sum(
                b_c[cid] / (2 * m_c[cid] + b_c[cid]) if (m_c[cid] or b_c[cid]) else 0.0
                for cid in clusters
            )
            return total / len(clusters)

        assert textbook(TRI_SPLIT, TRIANGLES) == 0.0
        assert loss_of(FitMeasure.CONDUCTANCE, TRI_SPLIT, TRIANGLES) == 0.0
        bad = Partition.from_clusters([["a", "b", "d"], ["c", "e", "f"]])
        for fn in (textbook, lambda p, g: loss_of(FitMeasure.CONDUCTANCE, p, g)):
            assert fn(bad, TRIANGLES) > fn(TRI_SPLIT, TRIANGLES)


class TestQp:
    def test_single_snapshot_equals_fit(self):
        net, out = _single(TRIANGLES, TRI_SPLIT)
        assert q_p(out, net, FitMeasure.MODULARITY) == pytest.approx(0.5)

    def test_identical_snapshots_one_segment(self):
        net = DynamicNetwork([TRIANGLES, TRIANGLES])
        out = ScdOutput(ChangePointSet((), 2), (TRI_SPLIT,))
        assert q_p(out, net, FitMeasure.MODULARITY) == pytest.approx(0.5)

    def test_mean_over_singleton_segments(self):
        g1 = Snapshot([], [("a", "b"), ("b", "c")])  # conductance 0.625 under split
        net = DynamicNetwork([g1, g1])
        p_split = Partition.from_clusters([["a", "b"], ["c"]])
        p_one = Partition.from_clusters([["a", "b", "c"]])
        out = ScdOutput(ChangePointSet((1,), 2), (p_split, p_one))
        # F' = 1 - F: (0.375 + 1.0) / 2
        assert q_p(out, net, FitMeasure.CONDUCTANCE) == pytest.approx(0.6875)

    def test_qp_on_singleton_segments_is_mean_of_fits(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = int(rng.integers(1, 9))
            cfg = GeneratorConfig(k=k, l=1, n=20, c_min=5, c_in=12, c_out=3,
                                  seed=int(rng.integers(1 << 31)))
            net, truth = generate(cfg)
            p = truth.partitions[0]
            out = ScdOutput(
                ChangePointSet(tuple(range(1, k)), k), tuple([p] * k)
            )
            for fit in FitMeasure:
                direct = sum(snapshot_fit(fit, net, 0, k - 1, p)) / k
                assert q_p(out, net, fit) == pytest.approx(direct)


# Prints every fit value of a seven-cluster partition over every segment of
# one generated network; string hashing must not change a single digit.
HASH_SEED_SCRIPT = """
from dynseg.dyngraph import Partition
from dynseg.generator import GeneratorConfig, generate
from dynseg.objectives import FitMeasure, snapshot_fit

net, _ = generate(GeneratorConfig(k=6, l=2, n=40, c_min=4, c_in=10, c_out=3, seed=5))
p = Partition({u: i % 7 for i, u in enumerate(net.labels)})
for fit in FitMeasure:
    for start in range(net.k):
        for end in range(start, net.k):
            print(fit.value, start, end, *map(repr, snapshot_fit(fit, net, start, end, p)))
"""


def test_fits_do_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(dynseg.__file__))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 4 * 21
    assert outputs[0] == outputs[1]


class TestBlockEstimate:
    """Segment blockmodel counts and the log-likelihood of their MLE."""

    def test_cross_pair_ratio(self):
        nodes_a = [f"a{i}" for i in range(5)]
        nodes_b = ["b0", "b1"]
        cross = [("a0", "b0"), ("a1", "b0"), ("a2", "b1")]
        g = Snapshot(nodes_a + nodes_b, cross)
        net = DynamicNetwork([g, g])
        p = Partition.from_clusters([nodes_a, nodes_b])
        edges, pairs, _ = _segment_counts(net, 0, 1, p)
        assert edges.tolist() == [[0, 6], [0, 0]]
        assert pairs.tolist() == [[20, 20], [0, 2]]
        # theta = 6/20 on the cross block; the intra blocks are empty
        assert segment_log_likelihood(net, 0, 1, p) == pytest.approx(
            6 * math.log(0.3) + 14 * math.log(0.7)
        )

    def test_full_clique_theta_one(self):
        nodes = ["a", "b", "c", "d"]
        g = Snapshot(nodes, [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]])
        net = DynamicNetwork([g, g, g])
        p = Partition.from_clusters([nodes])
        edges, pairs, _ = _segment_counts(net, 0, 2, p)
        assert edges.tolist() == pairs.tolist() == [[18]]
        assert segment_log_likelihood(net, 0, 2, p) == 0.0

    def test_no_edges_theta_zero(self):
        g = Snapshot(["a", "b", "c"], [])
        net = DynamicNetwork([g])
        p = Partition.from_clusters([["a", "b"], ["c"]])
        edges, pairs, _ = _segment_counts(net, 0, 0, p)
        assert edges.tolist() == [[0, 0], [0, 0]]
        assert pairs.tolist() == [[1, 2], [0, 0]]
        assert segment_log_likelihood(net, 0, 0, p) == 0.0

    def test_zero_pair_count_defined_zero(self):
        # cluster with one node has no intra pairs
        g = Snapshot(["a", "b"], [("a", "b")])
        net = DynamicNetwork([g])
        p = Partition.from_clusters([["a"], ["b"]])
        edges, pairs, _ = _segment_counts(net, 0, 0, p)
        assert pairs[0, 0] == 0
        assert edges[0, 0] == 0
        assert segment_log_likelihood(net, 0, 0, p) == 0.0


class TestLogLikelihood:
    def test_clique_is_zero(self):
        nodes = ["a", "b", "c", "d"]
        g = Snapshot(nodes, [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]])
        net, out = _single(g, Partition.from_clusters([nodes]))
        assert log_likelihood(out, net) == 0.0

    def test_empty_graph_is_zero(self):
        g = Snapshot(["a", "b", "c", "d"], [])
        net, out = _single(g, Partition.from_clusters([["a", "b", "c", "d"]]))
        assert log_likelihood(out, net) == 0.0

    def test_extreme_blocks_contribute_zero(self):
        g = Snapshot(["a", "b", "c", "d"], [("a", "b")])
        p = Partition.from_clusters([["a", "b"], ["c", "d"]])
        # intra cluster 0: 1 pair, 1 edge (theta 1); cluster 1: 1 pair 0 edges;
        # cross: 4 pairs 0 edges -> ll = 0
        net, out = _single(g, p)
        assert log_likelihood(out, net) == 0.0

    def test_half_of_block_pairs_present(self):
        # block with two pairs, one edge: theta 0.5 -> exactly 2 log 0.5;
        # the other blocks are extreme and contribute nothing
        g = Snapshot(["b"], [("a", "c")])
        p = Partition.from_clusters([["a", "b"], ["c"]])
        net, out = _single(g, p)
        assert log_likelihood(out, net) == pytest.approx(2 * math.log(0.5))
        # same value from a whole cluster with half its pairs filled
        g2 = Snapshot([], [("a", "b"), ("c", "d"), ("a", "c")])
        p2 = Partition.from_clusters([["a", "b", "c", "d"]])
        net2, out2 = _single(g2, p2)
        assert log_likelihood(out2, net2) == pytest.approx(6 * math.log(0.5))

    def test_always_nonpositive_and_zero_iff_extreme(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cfg = GeneratorConfig(k=4, l=2, n=18, c_min=3, c_in=10, c_out=2,
                                  seed=int(rng.integers(1 << 31)))
            net, truth = generate(cfg)
            ll = log_likelihood(truth, net)
            assert ll <= 0.0
            est_extreme = True
            for p, (s, e) in zip(truth.partitions, truth.segmentation()):
                edges, pairs, _ = _segment_counts(net, s, e, p)
                # theta = m / npair lies strictly inside (0, 1)
                if ((0 < edges) & (edges < pairs)).any():
                    est_extreme = False
            assert (ll == 0.0) == est_extreme

    def test_invariant_under_relabeling(self):
        cfg = GeneratorConfig(k=5, l=2, n=20, c_min=5, c_in=12, c_out=3, seed=9)
        net, truth = generate(cfg)
        relabeled = ScdOutput(
            truth.change_points,
            tuple(
                Partition({u: cid + 17 for u, cid in p.assignment.items()})
                for p in truth.partitions
            ),
        )
        assert log_likelihood(relabeled, net) == pytest.approx(
            log_likelihood(truth, net)
        )


class TestCounts:
    def test_num_parameters(self):
        p2 = Partition.from_clusters([["a"], ["b"]])
        p1 = Partition.from_clusters([["a", "b"]])
        p3 = Partition.from_clusters([["a"], ["b"], ["c"]])
        net = DynamicNetwork([Snapshot(["a", "b"], []), Snapshot(["a", "b", "c"], [])])
        assert num_parameters(ScdOutput(ChangePointSet((), 2), (p2,))) == 3
        assert num_parameters(ScdOutput(ChangePointSet((), 2), (p1,))) == 1
        out = ScdOutput(ChangePointSet((1,), 2), (p2, p3))
        assert num_parameters(out) == 9

    def test_num_observations(self):
        five = [f"v{i}" for i in range(5)]
        net = DynamicNetwork([Snapshot(five, []), Snapshot(five, [])])
        assert num_observations(net) == 20
        assert num_observations(DynamicNetwork([Snapshot(["a"], [])])) == 0
        mixed = DynamicNetwork([Snapshot(five[:3], []), Snapshot(five[:4], [])])
        assert num_observations(mixed) == 9


class TestQb:
    def test_aic_direct(self):
        nodes = ["a", "b", "c"]
        g = Snapshot(nodes, [("a", "b"), ("a", "c"), ("b", "c")])
        net, out = _single(g, Partition.from_clusters([["a", "b"], ["c"]]))
        # clique: all thetas are 1 -> ll = 0; np = 3
        assert q_b(out, net, Criterion.AIC) == pytest.approx(-3.0)

    def test_bic_direct(self):
        five = [f"v{i}" for i in range(5)]
        clique = [(u, v) for i, u in enumerate(five) for v in five[i + 1:]]
        net = DynamicNetwork([Snapshot(five, clique), Snapshot(five, clique)])
        p = Partition.from_clusters([five[:2], five[2:]])
        out = ScdOutput(ChangePointSet((), 2), (p,))
        ll = log_likelihood(out, net)
        expected = ll - 1.5 * math.log(20)
        assert q_b(out, net, Criterion.BIC) == pytest.approx(expected)
        # -1.5 ln 20 for the penalty part alone
        assert ll - expected == pytest.approx(1.5 * math.log(20))
        assert 1.5 * math.log(20) == pytest.approx(4.4936, abs=1e-4)

    def test_bic_never_above_aic_for_big_networks(self):
        cfg = GeneratorConfig(k=3, l=1, n=12, c_min=3, c_in=8, c_out=2, seed=2)
        net, truth = generate(cfg)
        assert num_observations(net) >= 8
        assert q_b(truth, net, Criterion.BIC) <= q_b(truth, net, Criterion.AIC)

    def test_bic_rejects_degenerate_network(self):
        net = DynamicNetwork([Snapshot(["a"], [])])
        out = ScdOutput(ChangePointSet((), 1), (Partition({"a": 0}),))
        with pytest.raises(ValueError):
            q_b(out, net, Criterion.BIC)

    def test_relabel_invariance(self):
        cfg = GeneratorConfig(k=4, l=2, n=16, c_min=4, c_in=10, c_out=2, seed=4)
        net, truth = generate(cfg)
        renamed = ScdOutput(
            truth.change_points,
            tuple(
                Partition({u: 1000 - cid for u, cid in p.assignment.items()})
                for p in truth.partitions
            ),
        )
        for crit in Criterion:
            assert q_b(renamed, net, crit) == pytest.approx(q_b(truth, net, crit))


class TestFitCorrelation:
    def test_qp_variants_positively_correlated(self):
        # random outputs of varying quality on generated networks
        rng = np.random.default_rng(77)
        rows = {fit: [] for fit in FitMeasure}
        for trial in range(100):
            cfg = GeneratorConfig(k=4, l=int(rng.integers(1, 5)), n=24, c_min=4,
                                  c_in=12, c_out=3, seed=int(rng.integers(1 << 31)))
            net, truth = generate(cfg)
            if rng.random() < 0.5:
                out = truth
            else:
                # degrade: random points and a random partition reused everywhere
                l = int(rng.integers(1, 5))
                pts = tuple(sorted(rng.choice(np.arange(1, 4), size=l - 1, replace=False).tolist()))
                nodes = list(net.labels)
                labels = rng.integers(0, int(rng.integers(1, 6)) + 1, size=len(nodes))
                p = Partition({u: int(c) for u, c in zip(nodes, labels)})
                out = ScdOutput(ChangePointSet(pts, 4), tuple([p] * l))
            for fit in FitMeasure:
                rows[fit].append(q_p(out, net, fit))
        fits = list(FitMeasure)
        for i, f1 in enumerate(fits):
            for f2 in fits[i + 1:]:
                pearson = stats.pearsonr(rows[f1], rows[f2]).statistic
                spearman = stats.spearmanr(rows[f1], rows[f2]).statistic
                assert pearson > 0, (f1, f2)
                assert spearman > 0, (f1, f2)

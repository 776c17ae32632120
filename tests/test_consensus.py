import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynseg.consensus import (
    Consensus,
    _pair_keys,
    co_occurrence_graph,
    consensus_average_louvain,
    consensus_matrix,
    consensus_sum_graph,
    segment_partition,
    sum_graph,
)
from dynseg.dyngraph import DynamicNetwork, Partition, Snapshot
from dynseg.static_cluster import KINDS, louvain
from label_graphs import (
    edge_weights, from_clusters, label_graph, reference_co_occurrence_graph, rows, snapshot_graph,
)

TRI_EDGES = [("a", "b"), ("b", "c"), ("a", "c"),
             ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")]
TRIANGLES = Snapshot([], TRI_EDGES)


class TestSumGraph:
    def test_weights_count_occurrences(self):
        g1 = Snapshot([], [("a", "b"), ("b", "c")])
        g2 = Snapshot([], [("a", "b")])
        g3 = Snapshot([], [("a", "c")])
        net = DynamicNetwork([g1, g2, g3])
        sg = sum_graph(net, 0, 2)
        assert edge_weights(sg) == {("a", "b"): 2.0, ("b", "c"): 1.0, ("a", "c"): 1.0}

    def test_weights_exhaustive_small_segments(self):
        snaps = [
            Snapshot([], [("a", "b"), ("c", "d")]),
            Snapshot([], [("a", "b"), ("b", "c")]),
            Snapshot([], [("b", "c")]),
        ]
        net = DynamicNetwork(snaps)
        for start in range(3):
            for end in range(start, 3):
                sg = sum_graph(net, start, end)
                for edge, w in edge_weights(sg).items():
                    count = sum(
                        1 for j in range(start, end + 1) if edge in net[j].edges
                    )
                    assert w == count
                # and no edge missing
                seen = set()
                for j in range(start, end + 1):
                    seen |= net[j].edges
                assert set(edge_weights(sg)) == seen

    def test_disjoint_edge_sets_weight_one(self):
        g1 = Snapshot([], [("a", "b")])
        g2 = Snapshot([], [("c", "d")])
        net = DynamicNetwork([g1, g2])
        sg = sum_graph(net, 0, 1)
        assert set(edge_weights(sg).values()) == {1.0}
        assert set(edge_weights(sg)) == {("a", "b"), ("c", "d")}

    def test_singleton_segment_equals_static_clustering(self):
        net = DynamicNetwork([TRIANGLES])
        p = consensus_sum_graph(net, (0, 0), "louvain", 4)
        direct = louvain(snapshot_graph(TRIANGLES), 4)
        assert p.assignment == direct.assignment

    def test_identical_snapshots_match_single_snapshot_louvain(self):
        net = DynamicNetwork([TRIANGLES] * 3)
        p = consensus_sum_graph(net, (0, 2), "louvain", 4)
        direct = louvain(snapshot_graph(TRIANGLES), 4)
        assert p == direct

    def test_weight_scale_invariance_of_louvain(self):
        g = label_graph([], {e: 1.0 for e in TRI_EDGES})
        scaled = label_graph([], {e: 3.0 for e in TRI_EDGES})
        assert louvain(g, 9).assignment == louvain(scaled, 9).assignment

    def test_edgeless_segment_gives_singletons(self):
        net = DynamicNetwork([Snapshot(["a", "b", "c"], [])])
        p = consensus_sum_graph(net, (0, 0), "walktrap", 0)
        assert p.num_clusters == 3

    def test_domain_is_union_of_node_sets(self):
        g1 = Snapshot(["x"], [("a", "b")])
        g2 = Snapshot([], [("b", "c")])
        net = DynamicNetwork([g1, g2])
        p = consensus_sum_graph(net, (0, 1), "louvain", 0)
        assert p.domain == {"a", "b", "c", "x"}


class TestAverageLouvain:
    def test_singleton_segment_equals_louvain(self):
        net = DynamicNetwork([TRIANGLES])
        p = consensus_average_louvain(net, (0, 0), seed=6)
        direct = louvain(snapshot_graph(TRIANGLES), 6)
        assert p.assignment == direct.assignment

    def test_identical_snapshots_equal_louvain(self):
        net = DynamicNetwork([TRIANGLES] * 4)
        p = consensus_average_louvain(net, (0, 3), seed=6)
        direct = louvain(snapshot_graph(TRIANGLES), 6)
        assert p == direct

    def test_opposing_snapshots_reject_merge(self):
        # A: u-v is the only relation; alone, Louvain merges u and v.
        # B (x10): u and v sit in two separate cliques; averaged over the
        # segment, the merge gain of (u, v) is negative by direct evaluation:
        #   gain_A(u->v) = (2/2)(1 - 1*1/2)        = +0.5
        #   gain_B(u->v) = (2/12)(0 - 2*2/12)      = -1/18 each
        #   mean over [A, 10B] = (0.5 - 10/18)/11  < 0
        a = Snapshot(["a1", "b1", "c1", "d1"], [("u", "v")])
        b = Snapshot([], [("u", "a1"), ("u", "b1"), ("a1", "b1"),
                          ("v", "c1"), ("v", "d1"), ("c1", "d1")])
        gain_a = (2 / 2) * (1 - 1 * 1 / 2)
        gain_b = (2 / 12) * (0 - 2 * 2 / 12)
        assert gain_a > 0
        assert gain_a + 10 * gain_b < 0
        alone = louvain(snapshot_graph(a), 0)
        assert alone.assignment["u"] == alone.assignment["v"]
        net = DynamicNetwork([a] + [b] * 10)
        p = consensus_average_louvain(net, (0, 10), seed=0)
        assert p.assignment["u"] != p.assignment["v"]

    def test_empty_snapshot_in_segment_is_neutral(self):
        empty = Snapshot(TRIANGLES.nodes, [])
        net = DynamicNetwork([TRIANGLES, empty, TRIANGLES])
        p = consensus_average_louvain(net, (0, 2), seed=3)
        direct = louvain(snapshot_graph(TRIANGLES), 3)
        assert p == direct


class TestConsensusMatrix:
    def test_co_occurrence_fraction(self):
        # u,v together in 3 of 4 snapshots
        together = Snapshot([], [("u", "v"), ("u", "w"), ("v", "w"), ("x", "y"), ("x", "z"), ("y", "z")])
        apart = Snapshot([], [("u", "w"), ("v", "x"), ("v", "y"), ("x", "y"), ("u", "z"), ("w", "z")])
        net = DynamicNetwork([together, together, together, apart])
        graph = co_occurrence_graph(net, (0, 3), "louvain", 1)
        weights = edge_weights(graph)
        assert weights[("u", "v")] == pytest.approx(0.75)

    def test_unanimous_partitions_reproduced(self):
        net = DynamicNetwork([TRIANGLES] * 3)
        p = consensus_matrix(net, (0, 2), "louvain", 2)
        assert p == from_clusters(["abc", "def"])

    def test_singleton_segment_two_triangles(self):
        net = DynamicNetwork([TRIANGLES])
        for kind in ("louvain", "walktrap"):
            p = consensus_matrix(net, (0, 0), kind, 2)
            assert p == from_clusters(["abc", "def"])

    def test_pair_never_present_together_absent(self):
        g1 = Snapshot([], [("a", "b")])
        g2 = Snapshot([], [("c", "d")])
        net = DynamicNetwork([g1, g2])
        weights = edge_weights(co_occurrence_graph(net, (0, 1), "louvain", 0))
        assert ("a", "c") not in weights

    def test_domain_is_union(self):
        g1 = Snapshot(["q"], [("a", "b")])
        g2 = Snapshot([], [("b", "c")])
        net = DynamicNetwork([g1, g2])
        p = consensus_matrix(net, (0, 1), "louvain", 0)
        assert p.domain == {"a", "b", "c", "q"}


LABELS = [f"n{i}" for i in range(8)]


@st.composite
def segments(draw):
    """A network and a segment with empty, edgeless and isolated-node snapshots."""
    k = draw(st.integers(1, 5))
    snapshots = []
    for _ in range(k):
        nodes = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=8))
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        snapshots.append(Snapshot(nodes, edges))
    net = DynamicNetwork(snapshots)
    start = draw(st.integers(0, k - 1))
    end = draw(st.integers(start, k - 1))
    return net, (start, end)


@settings(max_examples=300)
@given(segments(), st.sampled_from(KINDS), st.integers(0, 2**31 - 1))
def test_co_occurrence_graph_matches_label_keyed_reference(case, kind, seed):
    """Same labels, same edges in the same order, and bit-equal weights."""
    net, segment = case
    if not net.segment_node_ids(*segment).size:
        return
    got = co_occurrence_graph(net, segment, kind, seed)
    expected = reference_co_occurrence_graph(net, segment, kind, seed)
    assert got.labels == expected.labels
    for x, y in zip(got[1:], expected[1:]):
        assert x.tolist() == y.tolist()


@settings(max_examples=300)
@given(segments())
def test_single_snapshot_sum_graph_is_the_stored_snapshot(case):
    """``sum_graph(network, j, j)`` holds snapshot j's stored edges in local
    ids and stored order, each of weight 1.0; the co-occurrence graph
    clusters these graphs."""
    net, _ = case
    for j in range(net.k):
        graph = sum_graph(net, j, j)
        ids = net.segment_node_ids(j, j)
        u, v = net.segment_edges(j, j)
        assert graph.labels == tuple(net.labels[i] for i in ids.tolist())
        assert graph.a.tolist() == np.searchsorted(ids, u).tolist()
        assert graph.b.tolist() == np.searchsorted(ids, v).tolist()
        assert graph.w.dtype == float and graph.w.tolist() == [1.0] * len(u)


@settings(max_examples=300)
@given(st.data())
def test_pair_keys_match_upper_triangle_mask(data):
    """The cluster-by-cluster keys equal the n x n mask's, read row by row."""
    size = data.draw(st.integers(1, 30))
    member = np.array(data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)))
    local = np.array(sorted(data.draw(
        st.lists(st.integers(0, 59), unique=True, min_size=size, max_size=size)
    )))
    a, b = np.nonzero(np.triu(member[:, None] == member[None, :], 1))
    expected = local[a] * 60 + local[b]
    got = _pair_keys(member, local, 60)
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


def test_pair_keys_memory_is_linear_in_nodes_and_pairs():
    # the n x n mask took two 100 MB boolean arrays on these 10,000 singletons
    member = np.arange(10_000)
    tracemalloc.start()
    try:
        keys = _pair_keys(member, member, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.size == 0
    assert peak < 2_000_000


def test_co_occurrence_rows_follow_first_shared_snapshot():
    # a and c are first together in snapshot 0, a and b only in snapshot 1,
    # so a's row lists c before b although (a, b) sorts before (a, c)
    split = Snapshot([], [("a", "c"), ("b", "x")])
    triangle = Snapshot([], [("a", "b"), ("b", "c"), ("a", "c")])
    net = DynamicNetwork([split, triangle])
    graph = co_occurrence_graph(net, (0, 1), "walktrap", 0)
    assert graph.labels == ("a", "b", "c", "x")
    assert [list(row.items()) for row in rows(graph)] == [
        [(2, 1.0), (1, 0.5)], [(3, 1.0), (0, 0.5), (2, 0.5)],
        [(0, 1.0), (1, 0.5)], [(1, 1.0)],
    ]


class TestSegmentPartition:
    def test_spec_validation(self):
        # a name is a method and a clusterer it takes; there is no other pair
        for name in ("majority", "sum", "sum-graph", "avg-walktrap", "sum-stabilized-louvain",
                     "sum-metis", "cmatrix-label-propagation"):
            with pytest.raises(ValueError):
                Consensus(name)
        for c in Consensus:
            method, kind = c.value.split("-", 1)
            assert method in ("sum", "avg", "cmatrix") and kind in KINDS

    @pytest.mark.parametrize("spec", [
        Consensus.SUM_WALKTRAP,
        Consensus.SUM_LOUVAIN,
        Consensus.SUM_LPA,
        Consensus.AVG_LOUVAIN,
        Consensus.CMATRIX_LOUVAIN,
        Consensus.CMATRIX_STABILIZED_LOUVAIN,
    ], ids=[f"spec{i}" for i in range(6)])
    def test_deterministic_and_covering(self, spec):
        g1 = Snapshot(["x"], TRI_EDGES[:5])
        g2 = Snapshot([], TRI_EDGES[2:])
        net = DynamicNetwork([g1, g2, g1])
        p1 = segment_partition(net, (0, 2), spec, 8)
        p2 = segment_partition(net, (0, 2), spec, 8)
        assert p1.assignment == p2.assignment
        assert p1.domain == g1.nodes | g2.nodes

    @pytest.mark.parametrize("spec", [
        Consensus.SUM_WALKTRAP,
        Consensus.AVG_LOUVAIN,
        Consensus.CMATRIX_LOUVAIN,
    ], ids=[f"spec{i}" for i in range(3)])
    def test_empty_segment_gets_empty_partition(self, spec):
        net = DynamicNetwork([TRIANGLES, Snapshot(), Snapshot(), TRIANGLES])
        assert segment_partition(net, (1, 2), spec, 0) == Partition({})
        assert segment_partition(net, (0, 1), spec, 0).domain == TRIANGLES.nodes

    def test_per_segment_seeds_differ(self):
        # two different segments of identical content may differ, but the same
        # segment scored from different call orders may not
        net = DynamicNetwork([TRIANGLES, TRIANGLES, TRIANGLES])
        spec = Consensus.SUM_LOUVAIN
        first = segment_partition(net, (1, 2), spec, 5)
        segment_partition(net, (0, 0), spec, 5)
        second = segment_partition(net, (1, 2), spec, 5)
        assert first.assignment == second.assignment

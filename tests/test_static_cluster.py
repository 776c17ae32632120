import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynseg import static_cluster
from dynseg.consensus import Consensus, segment_partitions
from dynseg.dyngraph import Partition
from dynseg.generator import GeneratorConfig, generate
from dynseg.static_cluster import (
    KINDS,
    LevelGraph,
    WeightedGraph,
    cluster,
    label_propagation,
    label_propagation_many,
    walktrap,
)
from label_graphs import (
    assignment, clusters_of, edge_weights, from_clusters, is_canonical, label_graph, rows,
    singletons,
)


def _wg(edges, nodes=()):
    return label_graph(nodes, edges)


TWO_TRIANGLES = _wg({
    ("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1,
    ("d", "e"): 1, ("e", "f"): 1, ("d", "f"): 1,
    ("c", "d"): 1,
})
K4 = _wg({(u, v): 1 for i, u in enumerate("wxyz") for v in "wxyz"[i + 1:]})


def weighted_modularity(g: WeightedGraph, p: Partition) -> float:
    two_m = 2.0 * sum(edge_weights(g).values())
    if two_m == 0:
        return 0.0
    deg = {u: 0.0 for u in g.nodes}
    for (u, v), w in edge_weights(g).items():
        deg[u] += w
        deg[v] += w
    q = 0.0
    for members in clusters_of(p):
        inner = sum(w for (u, v), w in edge_weights(g).items() if u in members and v in members)
        tot = sum(deg[u] for u in members)
        q += 2.0 * inner / two_m - (tot / two_m) ** 2
    return q


@settings(max_examples=200)
@given(st.data())
def test_weighted_modularity_matches_networkx(data):
    nx = pytest.importorskip("networkx")
    labels = [f"v{i}" for i in range(10)]
    nodes = data.draw(st.lists(st.sampled_from(labels), unique=True, min_size=2))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    weights = st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)
    g = label_graph(nodes, {e: data.draw(weights) for e in chosen})
    cids = data.draw(st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes)))
    p = Partition(dict(zip(nodes, cids)))
    graph = nx.Graph()
    graph.add_nodes_from(g.nodes)
    graph.add_weighted_edges_from((u, v, w) for (u, v), w in edge_weights(g).items())
    expected = nx.community.modularity(graph, clusters_of(p), weight="weight")
    assert weighted_modularity(g, p) == pytest.approx(expected)


def brute_force_best_modularity(g: WeightedGraph) -> float:
    """Exhaustive maximum of weighted modularity over all partitions."""
    nodes = sorted(g.nodes)

    def all_partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for smaller in all_partitions(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [smaller[i] + [head]] + smaller[i + 1:]
            yield smaller + [[head]]

    best = -1.0
    for blocks in all_partitions(nodes):
        q = weighted_modularity(g, from_clusters(blocks))
        best = max(best, q)
    return best


def _random_graph(data, weights):
    labels = [f"v{i}" for i in range(12)]
    nodes = data.draw(st.lists(st.sampled_from(labels), unique=True, min_size=1))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return label_graph(nodes, {e: data.draw(weights) for e in chosen})


@settings(max_examples=200)
@given(st.data(), st.integers(0, 2**31 - 1))
def test_row_order_does_not_change_partitions(data, seed):
    """Shuffling the edge order, and with it each row's order, changes no partition.

    Unit weights make every sum exact, so only an order taken from the rows
    could differ: Louvain wakes a moved node's neighbours in ascending id
    order, and label propagation breaks ties by the smallest label.
    """
    g = _random_graph(data, st.just(1.0))
    perm = np.array(data.draw(st.permutations(range(len(g.w)))), dtype=np.intp)
    shuffled = WeightedGraph(g.labels, g.a[perm], g.b[perm], g.w[perm])
    cids = data.draw(st.lists(st.integers(0, 3), min_size=len(g.labels), max_size=len(g.labels)))
    init = Partition(dict(zip(g.labels, cids)))
    for run in (
        lambda h: cluster(h, "louvain", seed),
        lambda h: cluster(h, "stabilized-louvain", seed, init),
        lambda h: label_propagation(h, seed),
    ):
        assert assignment(run(shuffled)) == assignment(run(g))


@settings(max_examples=200)
@given(st.data(), st.integers(0, 2**31 - 1))
def test_edge_orientation_does_not_change_partitions(data, seed):
    """An edge joins a[i] and b[i] in either orientation: swapping the two on
    any subset of edges leaves every clusterer bit-identical, also with
    fractional weights, whose sums depend on the order of every row."""
    g = _random_graph(data, st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False))
    m = len(g.w)
    swap = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    swapped = WeightedGraph(g.labels, np.where(swap, g.b, g.a), np.where(swap, g.a, g.b), g.w)
    cids = data.draw(st.lists(st.integers(0, 3), min_size=len(g.labels), max_size=len(g.labels)))
    init = Partition(dict(zip(g.labels, cids)))
    for run in (
        walktrap,
        lambda h: cluster(h, "louvain", seed),
        lambda h: cluster(h, "stabilized-louvain", seed, init),
        lambda h: label_propagation(h, seed),
    ):
        assert assignment(run(swapped)) == assignment(run(g))


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            _wg({("a", "a"): 1})

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            _wg({("a", "b"): 0})

    def test_canonical_edge_keys(self):
        g = _wg({("b", "a"): 2})
        assert edge_weights(g) == {("a", "b"): 2.0}

    def test_adjacency_rows_fill_in_insertion_order(self):
        g = _wg({("c", "a"): 0.5, ("a", "b"): 0.25, ("b", "c"): 2})
        assert g.labels == ("a", "b", "c")
        assert [g.a.tolist(), g.b.tolist(), g.w.tolist()] == [
            [0, 0, 1], [2, 1, 2], [0.5, 0.25, 2.0],
        ]
        assert [list(row.items()) for row in rows(g)] == [
            [(2, 0.5), (1, 0.25)], [(0, 0.25), (2, 2.0)], [(0, 0.5), (1, 2.0)],
        ]

    def test_level_rows_fill_in_edge_order_in_either_orientation(self):
        g = WeightedGraph(
            ("a", "b", "c", "d"), np.array([2, 0, 2]), np.array([0, 1, 1]),
            np.array([0.5, 0.25, 2.0]),
        )
        assert edge_weights(g) == edge_weights(
            _wg({("c", "a"): 0.5, ("a", "b"): 0.25, ("b", "c"): 2}, nodes=["d"])
        )
        assert [list(row.items()) for row in LevelGraph.of_graph(g).adj] == [
            [(2, 0.5), (1, 0.25)], [(0, 0.25), (2, 2.0)], [(0, 0.5), (1, 2.0)], [],
        ]
        assert g.nodes == frozenset("abcd")


class TestLevelGraph:
    def test_one_graph_reads_its_own_adjacency(self):
        lg = LevelGraph.of_graph(TWO_TRIANGLES)
        assert [list(row.items()) for row in lg.adj] == [
            list(row.items()) for row in rows(TWO_TRIANGLES)
        ]
        assert lg.scale == 2 / 14
        assert lg.x[:, 0].tolist() == pytest.approx(
            [np.sqrt(2) * d / 14 for d in (2, 2, 3, 3, 2, 2)]
        )

    def test_snapshots_fold_into_scaled_union(self):
        # G = 2 over nodes 0..2: snapshot 0 is {0-1} (m = 1), snapshot 1 is
        # {0-1, 1-2} (m = 2); a_g = 1/(G m_g) and x[:, g] = sqrt(2/G) d^g / 2m_g
        # pairs 0-1 and 1-2; the snapshots hold pairs [0] and [0, 1]
        a, b = np.array([0, 1]), np.array([1, 2])
        lg = LevelGraph.of_snapshots(3, a, b, np.array([0, 0, 1]), np.array([0, 1, 3]))
        assert lg.scale == 1.0
        assert lg.adj == [{1: 0.75}, {0: 0.75, 2: 0.25}, {1: 0.25}]
        assert lg.x.tolist() == [[0.5, 0.25], [0.5, 0.5], [0.0, 0.25]]

    def test_empty_snapshot_adds_nothing(self):
        a, b = np.array([0]), np.array([1])
        lg = LevelGraph.of_snapshots(3, a, b, np.array([0]), np.array([0, 0, 1]))
        assert lg.adj == [{1: 0.5}, {0: 0.5}, {}]
        assert lg.x[:, 0].tolist() == [0.0, 0.0, 0.0]


class TestLouvain:
    def test_two_triangles(self):
        p = cluster(TWO_TRIANGLES, "louvain", 0)
        assert p == from_clusters(["abc", "def"])
        # matches the exhaustive optimum
        assert weighted_modularity(TWO_TRIANGLES, p) == pytest.approx(
            brute_force_best_modularity(TWO_TRIANGLES)
        )

    def test_edgeless_graph_singletons(self):
        g = label_graph(["x", "y", "z"], {})
        assert cluster(g, "louvain", 1) == singletons("xyz")

    def test_single_clique_one_cluster(self):
        p = cluster(K4, "louvain", 0)
        assert p.num_clusters == 1
        assert weighted_modularity(K4, p) == pytest.approx(
            brute_force_best_modularity(K4)
        )

    def test_respects_weights(self):
        # path with one heavy edge: heavy pair clusters together
        g = _wg({("a", "b"): 10, ("b", "c"): 1, ("c", "d"): 10})
        p = cluster(g, "louvain", 0)
        assert assignment(p)["a"] == assignment(p)["b"]
        assert assignment(p)["c"] == assignment(p)["d"]

    def test_determinism(self):
        for seed in (0, 1, 99):
            p1 = cluster(TWO_TRIANGLES, "louvain", seed)
            p2 = cluster(TWO_TRIANGLES, "louvain", seed)
            assert assignment(p1) == assignment(p2)

    def test_never_below_singletons(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = 12
            nodes = [f"n{i}" for i in range(n)]
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        edges[(nodes[i], nodes[j])] = float(rng.integers(1, 4))
            if not edges:
                continue
            g = label_graph(nodes, edges)
            found = weighted_modularity(g, cluster(g, "louvain", trial))
            start = weighted_modularity(g, singletons(nodes))
            assert found >= start - 1e-12


class TestStabilizedLouvain:
    def test_fixed_point(self):
        base = cluster(TWO_TRIANGLES, "louvain", 3)
        again = cluster(TWO_TRIANGLES, "stabilized-louvain", 3, base)
        assert assignment(again) == assignment(base)

    def test_singleton_init_equals_louvain(self):
        init = singletons(TWO_TRIANGLES.nodes)
        assert assignment(cluster(TWO_TRIANGLES, "stabilized-louvain", 7, init)) == \
            assignment(cluster(TWO_TRIANGLES, "louvain", 7))

    def test_correct_split_kept(self):
        init = from_clusters(["abc", "def"])
        assert cluster(TWO_TRIANGLES, "stabilized-louvain", 0, init) == init

    def test_nodes_missing_from_init_become_singletons(self):
        init = from_clusters([["a", "b"]])
        p = cluster(TWO_TRIANGLES, "stabilized-louvain", 0, init)
        assert set(p.labels) == TWO_TRIANGLES.nodes


# Three triangles in a ring.  Joining two of them is a local optimum of
# modularity that no clusterer reaches from scratch.
TRIANGLE_RING = _wg({
    ("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1,
    ("d", "e"): 1, ("e", "f"): 1, ("d", "f"): 1,
    ("g", "h"): 1, ("h", "i"): 1, ("g", "i"): 1,
    ("c", "d"): 1, ("f", "g"): 1, ("i", "a"): 1,
})


@pytest.mark.parametrize("kind", KINDS)
def test_init_matters_only_for_stabilized_louvain(kind):
    init = from_clusters(["abcdef", "ghi"])
    for seed in (0, 1, 2):
        plain = cluster(TRIANGLE_RING, kind, seed)
        assert plain != init
        started = cluster(TRIANGLE_RING, kind, seed, init=init)
        assert started == (init if kind == "stabilized-louvain" else plain)


class TestLabelPropagation:
    def test_edgeless_singletons(self):
        g = label_graph(["p", "q"], {})
        assert label_propagation(g, 0).num_clusters == 2

    def test_single_clique_converges_for_many_seeds(self):
        k5 = _wg({(u, v): 1 for i, u in enumerate("abcde") for v in "abcde"[i + 1:]})
        for seed in range(10):
            assert label_propagation(k5, seed).num_clusters == 1

    def test_disconnected_cliques_stay_apart(self):
        g = _wg({
            ("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1,
            ("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 1,
        })
        for seed in range(5):
            p = label_propagation(g, seed)
            assert p.num_clusters == 2
            assert assignment(p)["a"] != assignment(p)["x"]

    def test_determinism(self):
        p1 = label_propagation(TWO_TRIANGLES, 5)
        p2 = label_propagation(TWO_TRIANGLES, 5)
        assert assignment(p1) == assignment(p2)

    def test_many_rejects_a_graph_without_nodes(self):
        with pytest.raises(ValueError, match="no nodes to cluster"):
            label_propagation_many([TWO_TRIANGLES, label_graph([], {})], [0, 1])


# Exact ties (0.5 + 0.5 against 1.0, 0.1 + 0.2 against 0.3) and near-ties
# around _GAIN_TOL (1 +- 1e-12, and weights so small that top - _GAIN_TOL
# is not positive).
LPA_WEIGHTS = (1.0, 2.0, 0.5, 0.25, 0.1, 0.2, 0.3, 1.0 + 1e-12, 1.0 - 1e-12, 1e-12, 5e-13)


@st.composite
def lpa_graphs(draw):
    """A graph of 1-9 nodes, edgeless or with isolated nodes as drawn, its
    edges in drawn order and orientation."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flip = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    ends = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flip)]
    w = draw(st.lists(st.sampled_from(LPA_WEIGHTS), min_size=len(edges), max_size=len(edges)))
    return WeightedGraph(
        tuple(f"v{i}" for i in range(n)),
        np.array([u for u, _ in ends], dtype=np.intp),
        np.array([v for _, v in ends], dtype=np.intp),
        np.array(w, dtype=float),
    )


@pytest.mark.parametrize("sweeps", [static_cluster.MAX_SWEEPS, 1, 2])
@settings(max_examples=40, deadline=None)
@given(
    graphs=st.lists(lpa_graphs(), min_size=1, max_size=24),
    seed=st.integers(0, 2**32),
    batch_bytes=st.sampled_from([static_cluster.LPA_BATCH_BYTES, 1 << 14, 1 << 10]),
    width=st.sampled_from([1, static_cluster._MIN_LOCKSTEP_WIDTH]),
)
def test_label_propagation_many_equals_one_by_one(sweeps, graphs, seed, batch_bytes, width):
    """Graph by graph, the lockstep kernel gives label_propagation's partition.

    Small byte caps split the list into several batches and grow the row
    buffer for a graph that does not fit it; width 1 keeps every sweep in
    lockstep, the default hands the last graphs of a batch to the dict loop.
    """
    seeds = [seed + i for i in range(len(graphs))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(static_cluster, "MAX_SWEEPS", sweeps)
        mp.setattr(static_cluster, "LPA_BATCH_BYTES", batch_bytes)
        mp.setattr(static_cluster, "_MIN_LOCKSTEP_WIDTH", width)
        want = [label_propagation(g, s) for g, s in zip(graphs, seeds)]
        got = label_propagation_many(iter(graphs), iter(seeds))
    assert len(got) == len(want)
    for g, p, q in zip(graphs, got, want):
        assert p.labels is g.labels
        assert p.codes.tolist() == q.codes.tolist()


@pytest.mark.parametrize("sweeps", [6, static_cluster.MAX_SWEEPS])
def test_label_propagation_many_hands_stragglers_their_sweeps_left(monkeypatch, sweeps):
    """A 9-node path takes 4 to 8 sweeps: once too few paths of the batch are
    left for lockstep, the rest finish in the dict loop within MAX_SWEEPS."""
    nodes = [f"v{i}" for i in range(9)]
    path = label_graph(nodes, {(u, v): 1.0 for u, v in zip(nodes, nodes[1:])})
    monkeypatch.setattr(static_cluster, "MAX_SWEEPS", sweeps)
    seeds = range(12)
    assert label_propagation_many([path] * 12, seeds) == [label_propagation(path, s) for s in seeds]


def test_one_lockstep_batch_per_fill_worker_chunk(monkeypatch):
    """One of two fill workers' interleaved chunks of a k=32, n=50 exhaustive
    fill (264 of its 528 sum graphs) runs as one lockstep batch."""
    network = generate(GeneratorConfig(k=32, l=8, n=50, c_min=5, c_in=20, c_out=4, seed=401))[0]
    segments = [(t, i) for i in range(network.k) for t in range(i + 1)]
    batches = []
    lockstep = static_cluster._lockstep

    def counted(batch, nbr, wt):
        batches.append(len(batch))
        return lockstep(batch, nbr, wt)

    monkeypatch.setattr(static_cluster, "_lockstep", counted)
    segment_partitions(network, segments[0::2], Consensus.SUM_LPA, 0)
    assert batches == [264]


class TestWalktrap:
    def test_two_triangles(self):
        p = walktrap(TWO_TRIANGLES)
        assert p == from_clusters(["abc", "def"])
        assert weighted_modularity(TWO_TRIANGLES, p) == pytest.approx(
            brute_force_best_modularity(TWO_TRIANGLES)
        )

    def test_no_cluster_spans_components(self):
        g = _wg({
            ("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1,
            ("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 1,
        })
        p = walktrap(g)
        for members in clusters_of(p):
            assert members <= {"a", "b", "c"} or members <= {"x", "y", "z"}

    def test_single_clique(self):
        assert walktrap(K4).num_clusters == 1

    def test_isolated_nodes_stay_singletons(self):
        g = label_graph(["lonely"], {("a", "b"): 1.0})
        p = walktrap(g)
        assert assignment(p).keys() == {"lonely", "a", "b"}
        assert {"lonely"} in clusters_of(p)

    def test_edgeless(self):
        g = label_graph(["u", "v"], {})
        assert walktrap(g).num_clusters == 2

    def test_determinism(self):
        assert assignment(walktrap(TWO_TRIANGLES)) == assignment(walktrap(TWO_TRIANGLES))

    def test_node_limit(self, monkeypatch):
        monkeypatch.setattr(static_cluster, "WALKTRAP_MAX_NODES", 3)
        with pytest.raises(ValueError, match="6 nodes with edges exceed the limit of 3"):
            walktrap(TWO_TRIANGLES)
        # isolated nodes hold no matrix rows and do not count
        g = label_graph(["x", "y"], {("a", "b"): 1.0, ("b", "c"): 2.0})
        assert assignment(walktrap(g)).keys() == {"a", "b", "c", "x", "y"}


class TestCommonContracts:
    METHODS = [
        lambda g: cluster(g, "louvain", 13),
        lambda g: cluster(g, "stabilized-louvain", 13, singletons(g.nodes)),
        lambda g: label_propagation(g, 13),
        lambda g: walktrap(g),
        lambda g: label_propagation_many([g, g], [13, 14])[0],
    ]

    @pytest.mark.parametrize("method_idx", range(5))
    def test_output_covers_exactly_graph_nodes(self, method_idx):
        rng = np.random.default_rng(40 + method_idx)
        for _ in range(5):
            n = int(rng.integers(2, 15))
            nodes = [f"v{i}" for i in range(n)]
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        edges[(nodes[i], nodes[j])] = 1.0
            g = label_graph(nodes, edges)
            p = self.METHODS[method_idx](g)
            assert p.labels is g.labels  # shared, not copied
            assert p == Partition(dict(zip(p.labels, p.codes.tolist())))

    @pytest.mark.parametrize("method_idx", range(5))
    def test_component_safety(self, method_idx):
        # two random components with no bridge
        rng = np.random.default_rng(60 + method_idx)
        left = [f"l{i}" for i in range(6)]
        right = [f"r{i}" for i in range(6)]
        edges = {}
        for group in (left, right):
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if rng.random() < 0.6:
                        edges[(group[i], group[j])] = 1.0
        # ensure both components are connected via a spanning path
        for group in (left, right):
            for a, b in zip(group, group[1:]):
                edges[(min(a, b), max(a, b))] = edges.get((min(a, b), max(a, b)), 1.0)
        g = label_graph(left + right, edges)
        p = self.METHODS[method_idx](g)
        for members in clusters_of(p):
            assert members <= set(left) or members <= set(right)

    @pytest.mark.parametrize("method_idx", range(5))
    def test_graph_left_unchanged(self, method_idx):
        before = [x.copy() for x in TWO_TRIANGLES[1:]]
        self.METHODS[method_idx](TWO_TRIANGLES)
        assert all(map(np.array_equal, TWO_TRIANGLES[1:], before))

    @pytest.mark.parametrize("kind", KINDS)
    def test_dispatch_deterministic_and_canonical(self, kind):
        p1 = cluster(TWO_TRIANGLES, kind, 21)
        p2 = cluster(TWO_TRIANGLES, kind, 21)
        assert p1 == p2
        assert is_canonical(p1.codes.tolist())

    def test_spec_validation(self):
        # an unknown kind is an error, not a silent walktrap run
        with pytest.raises(ValueError, match="unknown clusterer kind 'metis'"):
            cluster(TWO_TRIANGLES, "metis", 21)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynseg import static_cluster
from dynseg.dyngraph import Partition
from dynseg.static_cluster import (
    ClustererSpec,
    LevelGraph,
    WeightedGraph,
    cluster,
    label_propagation,
    louvain,
    stabilized_louvain,
    walktrap,
)
from label_graphs import edge_weights, label_graph, rows


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
    for members in p.clusters().values():
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
    expected = nx.community.modularity(graph, p.clusters().values(), weight="weight")
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
        q = weighted_modularity(g, Partition.from_clusters(blocks))
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
        lambda h: louvain(h, seed),
        lambda h: stabilized_louvain(h, init, seed),
        lambda h: label_propagation(h, seed),
    ):
        assert run(shuffled).assignment == run(g).assignment


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
        lambda h: louvain(h, seed),
        lambda h: stabilized_louvain(h, init, seed),
        lambda h: label_propagation(h, seed),
    ):
        assert run(swapped).assignment == run(g).assignment


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
        u, v = np.array([0, 0, 1]), np.array([1, 1, 2])
        lg = LevelGraph.of_snapshots(3, u, v, np.array([0, 1, 3]))
        assert lg.scale == 1.0
        assert lg.adj == [{1: 0.75}, {0: 0.75, 2: 0.25}, {1: 0.25}]
        assert lg.x.tolist() == [[0.5, 0.25], [0.5, 0.5], [0.0, 0.25]]

    def test_empty_snapshot_adds_nothing(self):
        u, v = np.array([0]), np.array([1])
        lg = LevelGraph.of_snapshots(3, u, v, np.array([0, 0, 1]))
        assert lg.adj == [{1: 0.5}, {0: 0.5}, {}]
        assert lg.x[:, 0].tolist() == [0.0, 0.0, 0.0]


class TestLouvain:
    def test_two_triangles(self):
        p = louvain(TWO_TRIANGLES, 0)
        assert p.groups() == frozenset(
            [frozenset("abc"), frozenset("def")]
        )
        # matches the exhaustive optimum
        assert weighted_modularity(TWO_TRIANGLES, p) == pytest.approx(
            brute_force_best_modularity(TWO_TRIANGLES)
        )

    def test_edgeless_graph_singletons(self):
        g = label_graph(["x", "y", "z"], {})
        assert louvain(g, 1).groups() == frozenset(
            [frozenset(["x"]), frozenset(["y"]), frozenset(["z"])]
        )

    def test_single_clique_one_cluster(self):
        p = louvain(K4, 0)
        assert p.num_clusters == 1
        assert weighted_modularity(K4, p) == pytest.approx(
            brute_force_best_modularity(K4)
        )

    def test_respects_weights(self):
        # path with one heavy edge: heavy pair clusters together
        g = _wg({("a", "b"): 10, ("b", "c"): 1, ("c", "d"): 10})
        p = louvain(g, 0)
        assert p.assignment["a"] == p.assignment["b"]
        assert p.assignment["c"] == p.assignment["d"]

    def test_determinism(self):
        for seed in (0, 1, 99):
            p1 = louvain(TWO_TRIANGLES, seed)
            p2 = louvain(TWO_TRIANGLES, seed)
            assert p1.assignment == p2.assignment

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
            found = weighted_modularity(g, louvain(g, trial))
            start = weighted_modularity(g, Partition.singletons(nodes))
            assert found >= start - 1e-12


class TestStabilizedLouvain:
    def test_fixed_point(self):
        base = louvain(TWO_TRIANGLES, 3)
        again = stabilized_louvain(TWO_TRIANGLES, base, 3)
        assert again.assignment == base.assignment

    def test_singleton_init_equals_louvain(self):
        init = Partition.singletons(TWO_TRIANGLES.nodes)
        assert stabilized_louvain(TWO_TRIANGLES, init, 7).assignment == \
            louvain(TWO_TRIANGLES, 7).assignment

    def test_correct_split_kept(self):
        init = Partition.from_clusters([list("abc"), list("def")])
        p = stabilized_louvain(TWO_TRIANGLES, init, 0)
        assert p.groups() == init.groups()

    def test_nodes_missing_from_init_become_singletons(self):
        init = Partition.from_clusters([["a", "b"]])
        p = stabilized_louvain(TWO_TRIANGLES, init, 0)
        assert p.domain == TWO_TRIANGLES.nodes


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
            assert p.assignment["a"] != p.assignment["x"]

    def test_determinism(self):
        p1 = label_propagation(TWO_TRIANGLES, 5)
        p2 = label_propagation(TWO_TRIANGLES, 5)
        assert p1.assignment == p2.assignment


class TestWalktrap:
    def test_two_triangles(self):
        p = walktrap(TWO_TRIANGLES)
        assert p.groups() == frozenset([frozenset("abc"), frozenset("def")])
        assert weighted_modularity(TWO_TRIANGLES, p) == pytest.approx(
            brute_force_best_modularity(TWO_TRIANGLES)
        )

    def test_no_cluster_spans_components(self):
        g = _wg({
            ("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1,
            ("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 1,
        })
        p = walktrap(g)
        for members in p.clusters().values():
            assert members <= {"a", "b", "c"} or members <= {"x", "y", "z"}

    def test_single_clique(self):
        assert walktrap(K4).num_clusters == 1

    def test_isolated_nodes_stay_singletons(self):
        g = label_graph(["lonely"], {("a", "b"): 1.0})
        p = walktrap(g)
        assert p.assignment.keys() == {"lonely", "a", "b"}
        assert {"lonely"} in [set(m) for m in p.clusters().values()]

    def test_edgeless(self):
        g = label_graph(["u", "v"], {})
        assert walktrap(g).num_clusters == 2

    def test_determinism(self):
        assert walktrap(TWO_TRIANGLES).assignment == walktrap(TWO_TRIANGLES).assignment

    def test_node_limit(self, monkeypatch):
        monkeypatch.setattr(static_cluster, "WALKTRAP_MAX_NODES", 3)
        with pytest.raises(ValueError, match="6 nodes with edges exceed the limit of 3"):
            walktrap(TWO_TRIANGLES)
        # isolated nodes hold no matrix rows and do not count
        g = label_graph(["x", "y"], {("a", "b"): 1.0, ("b", "c"): 2.0})
        assert walktrap(g).assignment.keys() == {"a", "b", "c", "x", "y"}


class TestCommonContracts:
    METHODS = [
        lambda g: louvain(g, 13),
        lambda g: stabilized_louvain(g, Partition.singletons(g.nodes), 13),
        lambda g: label_propagation(g, 13),
        lambda g: walktrap(g),
    ]

    @pytest.mark.parametrize("method_idx", range(4))
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
            assert p.domain == g.nodes
            assert all(len(m) >= 1 for m in p.clusters().values())

    @pytest.mark.parametrize("method_idx", range(4))
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
        for members in p.clusters().values():
            assert members <= set(left) or members <= set(right)

    @pytest.mark.parametrize("method_idx", range(4))
    def test_graph_left_unchanged(self, method_idx):
        before = [x.copy() for x in TWO_TRIANGLES[1:]]
        self.METHODS[method_idx](TWO_TRIANGLES)
        assert all(map(np.array_equal, TWO_TRIANGLES[1:], before))

    @pytest.mark.parametrize("kind", ClustererSpec.KINDS)
    def test_dispatch_deterministic_and_canonical(self, kind):
        spec = ClustererSpec(kind, seed=21)
        p1 = cluster(TWO_TRIANGLES, spec)
        p2 = cluster(TWO_TRIANGLES, spec)
        assert p1.assignment == p2.assignment
        assert p1.assignment == p1.canonical().assignment

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClustererSpec("metis")

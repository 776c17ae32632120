"""The array walktrap checked against two earlier walktraps.

``reference_walktrap`` is the walktrap that ``static_cluster`` used before
its community state moved into arrays: one Python ``dist`` call, a small
numpy dot, per candidate pair, and a modularity rescan after every merge.
It computes a pair's squared distance with other numpy calls than the
library (one dot per pair against one matrix-vector product per merge),
which can round differently in the last bits.  Two candidate pairs whose
distance increases tie to within one ulp may then merge in the other order;
small trees with integer weights can produce such ties, so the random graphs
compared with it draw continuous weights.

``heap_walktrap`` is the array walktrap as it was when its heap held every
adjacent pair ever made, popping the stale ones.  It makes the same numpy
calls on the same rows in the same order as the library, so the two must
agree bit for bit on every graph, ties included.  A matrix-vector product's
bits for one row can depend on the row's position, so the order in which a
merged community lists its neighbours matters: the tie-heavy unit-weight
families below (rings, paths, stars, cliques, grids, rings of cliques) catch
a walktrap that lists them in another order.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynseg.consensus import sum_graph
from dynseg.dyngraph import Partition
from dynseg.generator import GeneratorConfig, generate
from dynseg.static_cluster import (
    WALKTRAP_MAX_NODES,
    WeightedGraph,
    _DIST_BLOCK,
    walktrap,
)
from label_graphs import assignment, from_clusters, label_graph, rows, singletons

WALK_LENGTH = 4


# ---------------------------------------------------------------------------
# Reference: the dict-and-heap walktrap, unchanged.
# ---------------------------------------------------------------------------

def reference_walktrap(graph: WeightedGraph) -> Partition:
    """Agglomerate communities by distance between short random-walk profiles.

    Adjacent community pairs merge in order of the smallest approximate
    squared-distance increase; the dendrogram is cut at the level with the
    highest weighted modularity.  Degree-0 nodes stay singletons.
    """
    labels, adj = graph.labels, rows(graph)
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    active = [u for u in range(n) if adj[u]]
    isolated = [u for u in range(n) if not adj[u]]
    if not active:
        return singletons(labels)

    pos = {u: i for i, u in enumerate(active)}
    na = len(active)
    A = np.zeros((na, na))
    for u in active:
        for v, w in adj[u].items():
            A[pos[u], pos[v]] = w
    deg = A.sum(axis=1)
    P = A / deg[:, None]
    Pt = np.linalg.matrix_power(P, WALK_LENGTH)
    inv_d = 1.0 / deg  # distance terms are weighted by 1/degree
    two_m = float(deg.sum())

    # community state
    vectors: dict[int, np.ndarray] = {i: Pt[i] for i in range(na)}
    sizes: dict[int, int] = {i: 1 for i in range(na)}
    tot: dict[int, float] = {i: float(deg[i]) for i in range(na)}
    inner: dict[int, float] = {i: 0.0 for i in range(na)}
    cadj: dict[int, dict[int, float]] = {i: {} for i in range(na)}
    for u in active:
        for v, w in adj[u].items():
            if pos[u] < pos[v]:
                cadj[pos[u]][pos[v]] = w
                cadj[pos[v]][pos[u]] = w

    def dist(c1: int, c2: int) -> float:
        delta = vectors[c1] - vectors[c2]
        r2 = float(np.dot(delta * delta, inv_d))
        s1, s2 = sizes[c1], sizes[c2]
        return (s1 * s2) / (s1 + s2) / na * r2

    current: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int, int]] = []
    for c1, nbrs in cadj.items():
        for c2 in nbrs:
            if c1 < c2:
                ds = dist(c1, c2)
                current[(c1, c2)] = ds
                heap.append((ds, c1, c2))
    heapq.heapify(heap)

    def partition_q() -> float:
        return sum(
            inner[c] / two_m - (tot[c] / two_m) ** 2 for c in sizes
        )

    alive = set(sizes)
    merges: list[tuple[int, int]] = []
    best_q = partition_q()
    best_step = 0
    next_id = na
    while heap:
        ds, c1, c2 = heapq.heappop(heap)
        key = (c1, c2)
        if c1 not in alive or c2 not in alive or current.get(key) != ds:
            continue
        del current[key]
        cid = next_id
        next_id += 1
        cross = cadj[c1].pop(c2)
        cadj[c2].pop(c1)
        s1, s2 = sizes[c1], sizes[c2]
        vectors[cid] = (s1 * vectors[c1] + s2 * vectors[c2]) / (s1 + s2)
        sizes[cid] = s1 + s2
        tot[cid] = tot[c1] + tot[c2]
        inner[cid] = inner[c1] + inner[c2] + 2.0 * cross
        nbrs: dict[int, float] = {}
        for old in (c1, c2):
            for other, w in cadj[old].items():
                nbrs[other] = nbrs.get(other, 0.0) + w
                del cadj[other][old]
        cadj[cid] = nbrs
        for other, w in nbrs.items():
            cadj[other][cid] = w
        for old in (c1, c2):
            alive.discard(old)
            for d in (vectors, sizes, tot, inner, cadj):
                d.pop(old, None)
        alive.add(cid)

        for other in sorted(nbrs):
            dd = dist(cid, other)
            key2 = (other, cid) if other < cid else (cid, other)
            current[key2] = dd
            heapq.heappush(heap, (dd, key2[0], key2[1]))

        merges.append((c1, c2))
        q = partition_q()
        if q > best_q:
            best_q = q
            best_step = len(merges)

    # replay merges up to the best level
    group: dict[int, list[int]] = {i: [active[i]] for i in range(na)}
    next_id = na
    for c1, c2 in merges[:best_step]:
        group[next_id] = group.pop(c1) + group.pop(c2)
        next_id += 1
    clusters = [[labels[u] for u in g] for g in group.values()]
    clusters.extend([[labels[u]] for u in isolated])
    return from_clusters(clusters)


# ---------------------------------------------------------------------------
# Reference: the array walktrap with a heap of every adjacent pair, unchanged.
# ---------------------------------------------------------------------------

def heap_walktrap(graph: WeightedGraph) -> Partition:
    """Agglomerate communities by distance between short random-walk profiles.

    Adjacent community pairs merge in order of the smallest approximate
    squared-distance increase; the dendrogram is cut at the level with the
    highest weighted modularity.  Degree-0 nodes stay singletons.  A graph
    with more than ``WALKTRAP_MAX_NODES`` nodes that have edges is rejected
    with a ``ValueError`` before anything is allocated.
    """
    labels, adj = graph.labels, rows(graph)
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    active = [u for u in range(n) if adj[u]]
    isolated = [u for u in range(n) if not adj[u]]
    if not active:
        return singletons(labels)
    na = len(active)
    if na > WALKTRAP_MAX_NODES:
        raise ValueError(
            f"walktrap: {na} nodes with edges exceed the limit of "
            f"{WALKTRAP_MAX_NODES} (WALKTRAP_MAX_NODES)"
        )

    pos = {u: i for i, u in enumerate(active)}
    # community ids: node i is community i, merge i creates community na + i;
    # cadj[c] maps each adjacent live community to the edge weight between them
    cadj: list[dict[int, float]] = [{pos[v]: w for v, w in adj[u].items()} for u in active]
    A = np.zeros((na, na))
    for i, nbrs in enumerate(cadj):
        A[i, list(nbrs)] = list(nbrs.values())
    deg = A.sum(axis=1)
    A /= deg[:, None]
    walk = np.linalg.matrix_power(A, WALK_LENGTH)
    del A
    vec = np.empty((2 * na - 1, na))  # row c: walk profile of community c
    vec[:na] = walk
    del walk
    inv_d = 1.0 / deg  # distance terms are weighted by 1/degree
    two_m = float(deg.sum())
    size = [1] * na
    tot = deg.tolist()
    inner = [0.0] * na
    alive = [True] * na

    pairs = np.array(
        [(c1, c2) for c1, nbrs in enumerate(cadj) for c2 in nbrs if c1 < c2]
    ).reshape(-1, 2)
    r2 = np.empty(len(pairs))
    step = max(1, _DIST_BLOCK // na)  # bounds the difference block's size
    for b in range(0, len(pairs), step):
        delta = vec[pairs[b:b + step, 0]]
        delta -= vec[pairs[b:b + step, 1]]
        delta *= delta
        r2[b:b + step] = delta @ inv_d
    # (delta-sigma, c1, c2) with c1 < c2, where two singletons have size
    # factor 1/2; every pair is pushed once, so an entry is stale exactly when
    # one of its communities has merged
    heap = list(zip((0.5 / na * r2).tolist(), pairs[:, 0].tolist(), pairs[:, 1].tolist()))
    heapq.heapify(heap)

    # per-community modularity terms, summed afresh after every merge: an
    # incremental update drifts in the last bits and can move the cut on ties
    terms = {c: inner[c] / two_m - (tot[c] / two_m) ** 2 for c in range(na)}
    merges: list[tuple[int, int]] = []
    best_q = sum(terms.values())
    best_step = 0
    while heap:
        _, c1, c2 = heapq.heappop(heap)
        if not (alive[c1] and alive[c2]):
            continue
        cid = len(size)
        cross = cadj[c1].pop(c2)
        cadj[c2].pop(c1)
        s1, s2 = size[c1], size[c2]
        vec[cid] = (s1 * vec[c1] + s2 * vec[c2]) / (s1 + s2)
        size.append(s1 + s2)
        tot.append(tot[c1] + tot[c2])
        inner.append(inner[c1] + inner[c2] + 2.0 * cross)
        nbrs: dict[int, float] = {}
        for old in (c1, c2):
            for other, w in cadj[old].items():
                nbrs[other] = nbrs.get(other, 0.0) + w
                del cadj[other][old]
            alive[old] = False
            del terms[old]
        cadj.append(nbrs)
        alive.append(True)
        for other, w in nbrs.items():
            cadj[other][cid] = w

        others = list(nbrs)
        delta = vec[others]
        delta -= vec[cid]
        delta *= delta
        s = size[cid]
        for other, d2 in zip(others, (delta @ inv_d).tolist()):
            so = size[other]
            heapq.heappush(heap, ((s * so) / (s + so) / na * d2, other, cid))

        merges.append((c1, c2))
        terms[cid] = inner[cid] / two_m - (tot[cid] / two_m) ** 2
        q = sum(terms.values())
        if q > best_q:
            best_q = q
            best_step = len(merges)

    # replay merges up to the best level
    group: dict[int, list[int]] = {i: [active[i]] for i in range(na)}
    next_id = na
    for c1, c2 in merges[:best_step]:
        group[next_id] = group.pop(c1) + group.pop(c2)
        next_id += 1
    clusters = [[labels[u] for u in g] for g in group.values()]
    clusters.extend([[labels[u]] for u in isolated])
    return from_clusters(clusters)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

LABELS = [f"n{i:02d}" for i in range(14)]


@st.composite
def component_graphs(draw, weights=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)):
    """Weighted graphs with several components and isolated nodes."""
    nodes = draw(st.lists(st.sampled_from(LABELS), unique=True, min_size=1, max_size=14))
    comp = draw(st.lists(st.integers(0, 2), min_size=len(nodes), max_size=len(nodes)))
    pairs = [
        (u, v)
        for i, u in enumerate(nodes)
        for j, v in enumerate(nodes[i + 1:], i + 1)
        if comp[i] == comp[j]
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return label_graph(nodes, {e: draw(weights) for e in chosen})


@settings(max_examples=400)
@given(component_graphs())
def test_walktrap_matches_reference(graph):
    assert assignment(walktrap(graph)) == assignment(reference_walktrap(graph))


@pytest.mark.parametrize("n, seed", [(30, 1), (30, 2), (60, 1), (60, 2)])
def test_walktrap_matches_reference_on_sum_graphs(n, seed):
    """Every segment of span up to 4 of a generated k=16 network."""
    network, _ = generate(GeneratorConfig(k=16, l=4, n=n, c_min=5, c_in=20, c_out=4, seed=seed))
    for start in range(network.k):
        for end in range(start, min(start + 4, network.k)):
            graph = sum_graph(network, start, end)
            got, expected = walktrap(graph), reference_walktrap(graph)
            assert assignment(got) == assignment(expected), (start, end)


# ---------------------------------------------------------------------------
# Bit-exact agreement with the heap walktrap
# ---------------------------------------------------------------------------

def _ring(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _star(n):
    return n, [(0, i) for i in range(1, n)]


def _clique(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def _grid(r, c):
    edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
    edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
    return r * c, edges


def _ring_of_cliques(m, s):
    edges = [(b + i, b + j) for b in range(0, m * s, s) for i in range(s) for j in range(i + 1, s)]
    edges += [(q * s, ((q + 1) % m) * s + 1) for q in range(m)]
    return m * s, edges


TIE_GRAPHS = [
    pytest.param(*shape, id=name)
    for name, shape in (
        [(f"ring{n}", _ring(n)) for n in range(3, 13)]
        + [(f"path{n}", _path(n)) for n in range(2, 13)]
        + [(f"star{n}", _star(n)) for n in range(3, 10)]
        + [(f"clique{n}", _clique(n)) for n in range(3, 9)]
        + [(f"grid{r}x{c}", _grid(r, c)) for r in range(2, 8) for c in range(2, 8)]
        + [(f"cliques{m}x{s}", _ring_of_cliques(m, s)) for m in range(3, 7) for s in range(3, 6)]
    )
]


def _ids_graph(n, edges, weights=None, isolated=0, seed=None):
    """Graph on ``n + isolated`` nodes from integer edges, kept in the given order.

    With a seed, the nodes get shuffled ids (the isolated ones fall in
    between) and the edges are given in shuffled order.
    """
    ids = np.arange(n + isolated)
    a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    w = np.ones(len(a)) if weights is None else np.asarray(weights, dtype=float)
    if seed is not None:
        rng = np.random.default_rng(seed)
        ids = rng.permutation(n + isolated)
        order = rng.permutation(len(a))
        a, b, w = a[order], b[order], w[order]
    labels = tuple(f"v{i:04d}" for i in range(n + isolated))
    return WeightedGraph(labels, ids[a], ids[b], w)


@pytest.mark.parametrize("n, edges", TIE_GRAPHS)
def test_walktrap_matches_heap_reference_on_tie_graphs(n, edges):
    """Unit weights in id order, in shuffled order and around isolated nodes."""
    for graph in (
        _ids_graph(n, edges),
        _ids_graph(n, edges, seed=1),
        _ids_graph(n, edges, seed=2),
        _ids_graph(n, edges, isolated=3, seed=3),
    ):
        assert assignment(walktrap(graph)) == assignment(heap_walktrap(graph))


@pytest.mark.parametrize("n, edges", TIE_GRAPHS)
def test_walktrap_matches_heap_reference_on_counts(n, edges):
    """Small integer weights, as sum graphs have them."""
    counts = np.random.default_rng(len(edges)).integers(1, 4, len(edges))
    for seed in (None, 4):
        graph = _ids_graph(n, edges, counts, isolated=2 if seed else 0, seed=seed)
        assert assignment(walktrap(graph)) == assignment(heap_walktrap(graph))


def test_walktrap_matches_heap_reference_on_sparse_graph():
    """About 800 nodes and 2,400 edges with counts, a few of the nodes isolated."""
    rng = np.random.default_rng(7)
    n = 800
    pairs = {tuple(sorted(e)) for e in rng.integers(0, n, (2500, 2)).tolist() if e[0] != e[1]}
    edges = sorted(pairs)
    graph = _ids_graph(n, edges, rng.integers(1, 4, len(edges)), isolated=5, seed=8)
    assert assignment(walktrap(graph)) == assignment(heap_walktrap(graph))


@settings(max_examples=300)
@given(component_graphs(st.integers(1, 3)))
def test_walktrap_matches_heap_reference(graph):
    assert assignment(walktrap(graph)) == assignment(heap_walktrap(graph))

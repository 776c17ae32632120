"""The array walktrap checked against the dict-and-heap walktrap it replaced.

The reference below is the walktrap that ``static_cluster`` used before its
community state moved into arrays: one Python ``dist`` call, a small numpy
dot, per candidate pair, and a modularity rescan after every merge.  It is
kept unchanged; the array code must return the identical assignment.

The two compute a pair's squared distance with different numpy calls (one
matrix-vector product per merge against one dot per pair), which can round
differently in the last bits.  Two candidate pairs whose distance increases
tie to within one ulp may then merge in the other order; small trees with
integer weights can produce such ties, so the random graphs below draw
continuous weights.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynseg.consensus import sum_graph
from dynseg.dyngraph import Partition
from dynseg.generator import GeneratorConfig, generate
from dynseg.static_cluster import WeightedGraph, walktrap
from label_graphs import label_graph

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
    labels, adj = graph.labels, graph.adj
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    active = [u for u in range(n) if adj[u]]
    isolated = [u for u in range(n) if not adj[u]]
    if not active:
        return Partition.singletons(labels)

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
    return Partition.from_clusters(clusters).canonical()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

LABELS = [f"n{i:02d}" for i in range(14)]


@st.composite
def component_graphs(draw):
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
    weights = st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)
    return label_graph(nodes, {e: draw(weights) for e in chosen})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(component_graphs())
def test_walktrap_matches_reference(graph):
    assert walktrap(graph).assignment == reference_walktrap(graph).assignment


@pytest.mark.parametrize("n, seed", [(30, 1), (30, 2), (60, 1), (60, 2)])
def test_walktrap_matches_reference_on_sum_graphs(n, seed):
    """Every segment of span up to 4 of a generated k=16 network."""
    network, _ = generate(GeneratorConfig(k=16, l=4, n=n, c_min=5, c_in=20, c_out=4, seed=seed))
    for start in range(network.k):
        for end in range(start, min(start + 4, network.k)):
            graph = sum_graph(network, start, end)
            assert walktrap(graph).assignment == reference_walktrap(graph).assignment, (start, end)

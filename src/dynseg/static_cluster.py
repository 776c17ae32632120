"""Weighted static-graph community detection primitives.

Four methods: Louvain, Louvain initialized from a given partition,
asynchronous label propagation, and random-walk agglomerative clustering.
All of them are deterministic given (graph, spec): randomized node orders
come from the spec's seed and every tie-break is pinned.  Returned
partitions cover exactly the graph's nodes and carry canonical cluster ids
(0, 1, ... ordered by each cluster's smallest member).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from operator import add, mul, sub
from typing import NamedTuple, Sequence

import numpy as np

from ._seeds import rng_for
from .dyngraph import Partition

_GAIN_TOL = 1e-12
MAX_SWEEPS = 100  # label-propagation sweeps before it stops unconverged
WALK_LENGTH = 4  # steps of the random walks whose profiles are compared
# Walktrap holds dense na x na float matrices for the na nodes that have
# edges, about 3 * na**2 * 8 bytes (400 MB at this limit), plus the sorted
# pair lists of its live communities.  The matrices dominate on sparse graphs
# and the lists on dense ones: a complete 1000-node graph peaked at 151 MB
# (traced), 24 MB of it matrices, and as the lists grow with the number of
# adjacent pairs a dense graph near this limit needs a few GB.  A larger
# graph is rejected with a ValueError, which the command line reports as
# exit 1.
WALKTRAP_MAX_NODES = 4000
_DIST_BLOCK = 1 << 13  # entries per block of walktrap's initial profile differences


class WeightedGraph(NamedTuple):
    """Undirected graph with positive edge weights and no self-loops.

    Edge i joins ids ``a[i]`` and ``b[i]`` of the sorted node ``labels``, in
    either orientation, with weight ``w[i]``; no pair appears twice.  The
    edge order fixes the order of every floating-point sum the clusterers
    take over a node's edges.
    """

    labels: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.labels)


def _rows(n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> list[dict[int, float]]:
    # per node, a dict from neighbour to edge weight for the clusterers that
    # loop in Python; rows fill in edge order
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for x, y, z in zip(a.tolist(), b.tolist(), w.tolist()):
        adj[x][y] = adj[y][x] = z
    return adj


@dataclass(frozen=True)
class ClustererSpec:
    """Pins one static method together with everything that makes it deterministic."""

    kind: str  # louvain | stabilized-louvain | label-propagation | walktrap
    seed: int = 0

    KINDS = ("louvain", "stabilized-louvain", "label-propagation", "walktrap")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown clusterer kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Louvain: one core for the plain, initialized (Aynaud & Guillaume 2010) and
# multi-snapshot variants.  A level graph holds one adjacency plus, per node
# u, a row x_u of null-model terms; the modularity gain of moving u into
# community c is  scale * w(u, c) - <x_u, sum of x_v over v in c>.  One graph
# is the one-column case: scale = 2/2m and x_u = sqrt(2) d_u / 2m.  The mean
# gain over G snapshots is linear in them: the union adjacency weighs each
# edge of snapshot g by 2 / (G 2m_g), scale is 1 and column g of x_u is
# sqrt(2/G) d_u^g / 2m_g.  Contraction sums the adjacency between
# communities and the rows of x; weight inside a community drops out.
# ---------------------------------------------------------------------------

class LevelGraph(NamedTuple):
    """One Louvain level: adjacency rows, null-model rows ``x`` and ``scale``."""

    adj: list[dict[int, float]]
    x: np.ndarray
    scale: float

    @classmethod
    def of_graph(cls, graph: WeightedGraph) -> "LevelGraph":
        """Modularity of one graph."""
        adj = _rows(len(graph.labels), graph.a, graph.b, graph.w)
        deg = np.array([sum(nbrs.values()) for nbrs in adj], dtype=float)
        two_m = float(deg.sum())
        if two_m == 0:
            return cls(adj, np.zeros((len(deg), 1)), 0.0)
        return cls(adj, (math.sqrt(2.0) / two_m * deg)[:, None], 2.0 / two_m)

    @classmethod
    def of_snapshots(
        cls, n: int, u: np.ndarray, v: np.ndarray, offsets: np.ndarray
    ) -> "LevelGraph":
        """Mean modularity over G snapshots on nodes 0..n-1.

        Snapshot g's edges are ``(u[i], v[i])``, u < v, for i in
        ``offsets[g]:offsets[g + 1]``; an edgeless snapshot adds nothing.
        """
        num_snaps = len(offsets) - 1
        m = np.diff(offsets)
        snap = np.repeat(np.arange(num_snaps), m)
        inv_m = np.divide(1.0, m, out=np.zeros(num_snaps), where=m > 0)
        # distinct edges with their snapshots in time order; a_g = 1 / (G m_g)
        keys = np.sort((u * n + v) * num_snaps + snap)
        edge, snap_of = np.divmod(keys, num_snaps)
        first = np.diff(edge, prepend=-1) != 0
        weight = np.bincount(np.cumsum(first) - 1, weights=inv_m[snap_of] / num_snaps)
        a, b = np.divmod(edge[first], n)
        deg = np.bincount(u * num_snaps + snap, minlength=n * num_snaps)
        deg += np.bincount(v * num_snaps + snap, minlength=n * num_snaps)
        x = deg.reshape(n, num_snaps) * (math.sqrt(2.0 / num_snaps) / 2.0 * inv_m)
        return cls(_rows(n, a, b, weight), x, 1.0)


def _one_level(lg: LevelGraph, comm: list[int], rng: np.random.Generator) -> bool:
    """Fast local move (Traag, Waltman & van Eck 2019); True if any node moved.

    Nodes start queued in a seeded random order; a node that moves queues, in
    ascending id order, its neighbours that are neither queued nor in its new
    community.  Null terms are Python float sums, so BLAS plays no part.
    """
    adj, scale = lg.adj, lg.scale
    tot = np.zeros_like(lg.x)
    np.add.at(tot, comm, lg.x)
    x, tot = lg.x.tolist(), tot.tolist()
    queue = deque(rng.permutation(len(comm)).tolist())
    queued = [True] * len(comm)
    moved = False
    while queue:
        u = queue.popleft()
        queued[u] = False
        a = comm[u]
        xu = x[u]
        # weight from u to each neighbouring community
        w_uc: dict[int, float] = {}
        for v, w in adj[u].items():
            c = comm[v]
            w_uc[c] = w_uc.get(c, 0.0) + w
        best_c = a
        best_gain = scale * w_uc.get(a, 0.0) - sum(map(mul, xu, map(sub, tot[a], xu)))
        for c in sorted(w_uc):
            if c != a:
                g = scale * w_uc[c] - sum(map(mul, xu, tot[c]))
                if g > best_gain + _GAIN_TOL:
                    best_c, best_gain = c, g
        if best_c != a:
            comm[u] = best_c
            tot[a] = list(map(sub, tot[a], xu))
            tot[best_c] = list(map(add, tot[best_c], xu))
            moved = True
            for v in sorted(adj[u]):
                if not queued[v] and comm[v] != best_c:
                    queued[v] = True
                    queue.append(v)
    return moved


def _contract(lg: LevelGraph, comm: list[int]) -> tuple[LevelGraph, dict[int, int]]:
    ids = sorted(set(comm))
    renum = {c: i for i, c in enumerate(ids)}
    new = [renum[c] for c in comm]
    adj: list[dict[int, float]] = [{} for _ in ids]
    for u, nbrs in enumerate(lg.adj):
        cu = new[u]
        for v, w in nbrs.items():
            cv = new[v]
            if u < v and cu != cv:
                adj[cu][cv] = adj[cv][cu] = adj[cu].get(cv, 0.0) + w
    x = np.zeros((len(ids), lg.x.shape[1]))
    np.add.at(x, new, lg.x)
    return LevelGraph(adj, x, lg.scale), renum


def louvain_multi(
    labels: tuple[str, ...], level: LevelGraph, seed: int, init: Partition | None = None
) -> Partition:
    """Louvain over one level graph on ``labels``; every Louvain variant runs here."""
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    membership = list(range(n))
    comm = _init_ids(init, labels) if init is not None else list(range(n))
    rng = rng_for(seed, "louvain")
    while _one_level(level, comm, rng):
        level, renum = _contract(level, comm)
        membership = [renum[comm[c]] for c in membership]
        comm = list(range(len(renum)))
    return Partition({u: comm[membership[i]] for i, u in enumerate(labels)}).canonical()


def _init_ids(init: Partition, labels: Sequence[str]) -> list[int]:
    # ids in order of first appearance; nodes absent from init start as singletons
    ids: dict = {}
    return [ids.setdefault(init.assignment.get(u, (u,)), len(ids)) for u in labels]


def louvain(graph: WeightedGraph, seed: int) -> Partition:
    """Greedy modularity maximization by node moves and graph contraction."""
    return louvain_multi(graph.labels, LevelGraph.of_graph(graph), seed)


def stabilized_louvain(graph: WeightedGraph, init: Partition | None, seed: int) -> Partition:
    """Louvain seeded from a previous partition instead of all-singletons."""
    return louvain_multi(graph.labels, LevelGraph.of_graph(graph), seed, init)


# ---------------------------------------------------------------------------
# Label propagation
# ---------------------------------------------------------------------------

def label_propagation(graph: WeightedGraph, seed: int) -> Partition:
    """Asynchronous weighted-majority label propagation.

    Node order is reshuffled from the seed each sweep; among maximal-weight
    labels the smallest id wins, which also stops label thrashing.
    """
    labels = graph.labels
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    adj = _rows(n, graph.a, graph.b, graph.w)
    lab = list(range(n))
    rng = rng_for(seed, "lpa")
    for _ in range(MAX_SWEEPS):
        changed = False
        for u in rng.permutation(n).tolist():
            if not adj[u]:
                continue
            weight: dict[int, float] = {}
            for v, w in adj[u].items():
                weight[lab[v]] = weight.get(lab[v], 0.0) + w
            top = max(weight.values())
            new = min(l for l, w in weight.items() if w >= top - _GAIN_TOL)
            if new != lab[u]:
                lab[u] = new
                changed = True
        if not changed:
            break
    return Partition({labels[i]: l for i, l in enumerate(lab)}).canonical()


# ---------------------------------------------------------------------------
# Random-walk agglomerative clustering
# ---------------------------------------------------------------------------

def walktrap(graph: WeightedGraph) -> Partition:
    """Agglomerate communities by distance between short random-walk profiles.

    Adjacent community pairs merge in order of the smallest approximate
    squared-distance increase; the dendrogram is cut at the level with the
    highest weighted modularity.  Degree-0 nodes stay singletons.  A graph
    with more than ``WALKTRAP_MAX_NODES`` nodes that have edges is rejected
    with a ``ValueError`` before anything is allocated.
    """
    labels = graph.labels
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    has_edges = (np.bincount(graph.a, minlength=n) + np.bincount(graph.b, minlength=n)) > 0
    active = np.flatnonzero(has_edges).tolist()
    if not active:
        return Partition.singletons(labels)
    na = len(active)
    if na > WALKTRAP_MAX_NODES:
        raise ValueError(
            f"walktrap: {na} nodes with edges exceed the limit of "
            f"{WALKTRAP_MAX_NODES} (WALKTRAP_MAX_NODES)"
        )

    # community ids: node active[i] is community i, merge i creates community
    # na + i; cadj[c] maps each adjacent live community to the edge weight
    # between them
    local = np.cumsum(has_edges) - 1
    u, v = local[graph.a], local[graph.b]
    cadj = _rows(na, u, v, graph.w)
    A = np.zeros((na, na))
    A[u, v] = A[v, u] = graph.w
    deg = A.sum(axis=1)
    A /= deg[:, None]
    walk = np.linalg.matrix_power(A, WALK_LENGTH)
    del A
    vec = np.empty((2 * na - 1, na))  # row c: walk profile of community c
    vec[:na] = walk
    del walk
    inv_d = 1.0 / deg  # distance terms are weighted by 1/degree
    two_m = float(deg.sum())
    size = np.ones(2 * na - 1, dtype=np.int64)
    tot = deg.tolist()
    inner = [0.0] * na
    alive = [True] * na

    # adjacent pairs (c1, c2), c1 < c2, in row order (c1 ascending, then
    # cadj[c1]'s order, which is edge order): the rows of each block product
    # below, whose last bits depend on a row's position
    lo = np.minimum(u, v)
    order = np.argsort(lo, kind="stable")
    c1s, c2s = lo[order], np.maximum(u, v)[order]
    r2 = np.empty(len(c1s))
    step = max(1, _DIST_BLOCK // na)  # bounds the difference block's size
    for b in range(0, len(c1s), step):
        delta = vec[c1s[b:b + step]]
        delta -= vec[c2s[b:b + step]]
        delta *= delta
        r2[b:b + step] = delta @ inv_d
    ds = 0.5 / na * r2  # delta-sigma; two singletons have size factor 1/2

    # Per-community pair lists.  A pair (c1, c2), c1 < c2, belongs to c2, the
    # later community, so a community's pairs are all made when it is; they
    # are sorted once by (delta-sigma, c1) and kept as (delta-sigma, c1) in
    # pairs[c], which is released when c merges.  The heap holds one entry
    # (delta-sigma, c1, c) per community, for pairs[c][cursor[c]], whose c1
    # was live when it was pushed.  Every live pair is no smaller than its
    # owner's entry, so the first entry popped with both communities live is
    # the smallest live (delta-sigma, c1, c2) of all pairs.
    order = np.lexsort((c1s, ds, c2s))
    flat = list(zip(ds[order].tolist(), c1s[order].tolist()))
    stop = np.cumsum(np.bincount(c2s, minlength=na)).tolist()
    pairs = [flat[a:b] for a, b in zip([0] + stop[:-1], stop)]
    del u, v, lo, c1s, c2s, r2, ds, order, flat, stop
    cursor = [0] * na
    heap = [lst[0] + (c,) for c, lst in enumerate(pairs) if lst]
    heapq.heapify(heap)

    # per-community modularity terms, summed afresh after every merge: an
    # incremental update drifts in the last bits and can move the cut on ties
    terms = {c: inner[c] / two_m - (tot[c] / two_m) ** 2 for c in range(na)}
    merges: list[tuple[int, int]] = []
    best_q = sum(terms.values())
    best_step = 0
    while heap:
        _, c1, c2 = heapq.heappop(heap)
        if not alive[c2]:
            continue
        if not alive[c1]:
            # c1 has merged: move on to c2's next pair whose c1 is live
            lst = pairs[c2]
            i, end = cursor[c2] + 1, len(lst)
            while i < end and not alive[lst[i][1]]:
                i += 1
            if i < end:
                cursor[c2] = i
                heapq.heappush(heap, lst[i] + (c2,))
            continue
        cid = na + len(merges)
        cross = cadj[c1].pop(c2)
        cadj[c2].pop(c1)
        s1, s2 = size.item(c1), size.item(c2)
        vec[cid] = (s1 * vec[c1] + s2 * vec[c2]) / (s1 + s2)
        size[cid] = s = s1 + s2
        tot.append(tot[c1] + tot[c2])
        inner.append(inner[c1] + inner[c2] + 2.0 * cross)
        # cid takes over c1's row and adds c2's; in every neighbour's row, cid
        # enters last, after the remaining neighbours in their old order
        nbrs = cadj[c1]
        for other, w in nbrs.items():
            row = cadj[other]
            del row[c1]
            row[cid] = w
        for other, w in cadj[c2].items():
            row = cadj[other]
            del row[c2]
            row[cid] = nbrs[other] = nbrs.get(other, 0.0) + w
        cadj.append(nbrs)
        alive[c1] = alive[c2] = False
        alive.append(True)
        pairs[c1] = pairs[c2] = None
        del terms[c1], terms[c2]

        others = list(nbrs)
        idx = np.array(others, dtype=np.intp)
        delta = vec[idx]
        delta -= vec[cid]
        delta *= delta
        so = size[idx]
        lst = sorted(zip(((s * so) / (s + so) / na * (delta @ inv_d)).tolist(), others))
        pairs.append(lst)
        cursor.append(0)
        if lst:
            heapq.heappush(heap, lst[0] + (cid,))

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
    clusters.extend([[labels[u]] for u in np.flatnonzero(~has_edges).tolist()])
    return Partition.from_clusters(clusters).canonical()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def cluster(graph: WeightedGraph, spec: ClustererSpec, init: Partition | None = None) -> Partition:
    if spec.kind == "louvain":
        return louvain(graph, spec.seed)
    if spec.kind == "stabilized-louvain":
        return stabilized_louvain(graph, init, spec.seed)
    if spec.kind == "label-propagation":
        return label_propagation(graph, spec.seed)
    return walktrap(graph)

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
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ._seeds import rng_for
from .dyngraph import Partition, Snapshot

_GAIN_TOL = 1e-12
MAX_SWEEPS = 100  # label-propagation sweeps before it stops unconverged
WALK_LENGTH = 4  # steps of the random walks whose profiles are compared
# Walktrap holds dense na x na float matrices for the na nodes that have
# edges, about 3 * na**2 * 8 bytes at its peak (400 MB at this limit).  A
# larger graph is rejected with a ValueError, which the command line reports
# as exit 1.
WALKTRAP_MAX_NODES = 4000
_DIST_BLOCK = 1 << 13  # entries per block of walktrap's initial profile differences


class WeightedGraph:
    """Undirected graph with positive edge weights and no self-loops.

    Held as the sorted node labels plus, per node id, a dict from neighbour
    id to edge weight; clusterers read this adjacency directly.
    """

    __slots__ = ("labels", "adj")

    def __init__(self, nodes, edges: Mapping[tuple[str, str], float]):
        node_set = set(nodes)
        canon: dict[tuple[str, str], float] = {}
        for (u, v), w in edges.items():
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            if w <= 0:
                raise ValueError(f"non-positive weight on edge ({u!r}, {v!r})")
            node_set.add(u)
            node_set.add(v)
            canon[(u, v) if u <= v else (v, u)] = float(w)
        self.labels: tuple[str, ...] = tuple(sorted(node_set))
        index = {u: i for i, u in enumerate(self.labels)}
        # rows fill in edge-insertion order, which fixes the order of every
        # floating-point sum over a node's fractional edge weights
        self.adj: list[dict[int, float]] = [{} for _ in self.labels]
        for (u, v), w in canon.items():
            iu, iv = index[u], index[v]
            self.adj[iu][iv] = self.adj[iv][iu] = w

    @classmethod
    def from_adjacency(
        cls, labels: tuple[str, ...], adj: list[dict[int, float]]
    ) -> "WeightedGraph":
        """Wrap sorted labels and a symmetric id adjacency without copying."""
        graph = cls.__new__(cls)
        graph.labels = labels
        graph.adj = adj
        return graph

    @classmethod
    def from_snapshot(cls, g: Snapshot) -> "WeightedGraph":
        return cls(g.nodes, {e: 1.0 for e in g.edges})

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.labels)

    @property
    def edges(self) -> dict[tuple[str, str], float]:
        """A fresh {(u, v): weight} dict with u < v."""
        labels = self.labels
        return {
            (labels[u], labels[v]): w
            for u, nbrs in enumerate(self.adj)
            for v, w in nbrs.items()
            if u < v
        }


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
        """Modularity of one graph, read through the graph's own adjacency."""
        deg = np.array([sum(nbrs.values()) for nbrs in graph.adj], dtype=float)
        two_m = float(deg.sum())
        if two_m == 0:
            return cls(graph.adj, np.zeros((len(deg), 1)), 0.0)
        return cls(graph.adj, (math.sqrt(2.0) / two_m * deg)[:, None], 2.0 / two_m)

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
        adj: list[dict[int, float]] = [{} for _ in range(n)]
        for p, q, w in zip(a.tolist(), b.tolist(), weight.tolist()):
            adj[p][q] = adj[q][p] = w
        deg = np.bincount(u * num_snaps + snap, minlength=n * num_snaps)
        deg += np.bincount(v * num_snaps + snap, minlength=n * num_snaps)
        x = deg.reshape(n, num_snaps) * (math.sqrt(2.0 / num_snaps) / 2.0 * inv_m)
        return cls(adj, x, 1.0)


def _one_level(lg: LevelGraph, comm: list[int], rng: np.random.Generator) -> bool:
    """Local-moving phase on the current level; True if any node moved."""
    n = len(comm)
    adj, scale = lg.adj, lg.scale
    tot = np.zeros_like(lg.x)
    np.add.at(tot, comm, lg.x)
    if lg.x.shape[1] == 1:
        # one column: Python floats beat numpy rows
        x, tot = lg.x[:, 0].tolist(), tot[:, 0].tolist()

        def null(xu, cands: list[int]) -> list[float]:
            return [xu * tot[c] for c in cands]
    else:
        x = lg.x

        def null(xu, cands: list[int]) -> list[float]:
            return (tot[cands] @ xu).tolist()

    moved_any = False
    while True:
        moved = False
        for u in rng.permutation(n).tolist():
            a = comm[u]
            xu = x[u]
            tot[a] -= xu
            # weight from u to each neighbouring community
            w_uc: dict[int, float] = {}
            for v, w in adj[u].items():
                c = comm[v]
                w_uc[c] = w_uc.get(c, 0.0) + w
            others = sorted(c for c in w_uc if c != a)
            nulls = null(xu, [a] + others)
            best_c, best_gain = a, scale * w_uc.get(a, 0.0) - nulls[0]
            for c, null_c in zip(others, nulls[1:]):
                g = scale * w_uc[c] - null_c
                if g > best_gain + _GAIN_TOL:
                    best_c, best_gain = c, g
            comm[u] = best_c
            tot[best_c] += xu
            if best_c != a:
                moved = True
        if not moved:
            break
        moved_any = True
    return moved_any


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
    labels, adj = graph.labels, graph.adj
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    lab = list(range(n))
    rng = rng_for(seed, "lpa")
    for _ in range(MAX_SWEEPS):
        changed = False
        for u in rng.permutation(n):
            u = int(u)
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
    labels, adj = graph.labels, graph.adj
    if not labels:
        raise ValueError("no nodes to cluster")
    n = len(labels)
    active = [u for u in range(n) if adj[u]]
    isolated = [u for u in range(n) if not adj[u]]
    if not active:
        return Partition.singletons(labels)
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

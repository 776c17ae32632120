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

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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._seeds import rng_for
from .dyngraph import Partition, Snapshot

_GAIN_TOL = 1e-12


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
# Louvain core, shared by the plain, initialized and multi-graph variants.
# The multi-graph variant scores each candidate move by the mean modularity
# gain across all graphs and contracts every graph in parallel, so all
# graphs always share one partition.
# ---------------------------------------------------------------------------

class _LevelGraph:
    __slots__ = ("adj", "loop", "deg", "two_m")

    def __init__(self, adj: list[dict[int, float]], loop: list[float]):
        self.adj = adj
        self.loop = loop
        self.deg = [sum(nbrs.values()) + 2.0 * loop[i] for i, nbrs in enumerate(adj)]
        self.two_m = sum(self.deg)


def _one_level(
    graphs: list[_LevelGraph], comm: list[int], rng: np.random.Generator, num_graphs: int
) -> bool:
    """Local-moving phase on the current level; True if any node moved."""
    n = len(comm)
    tots: list[dict[int, float]] = []
    for lg in graphs:
        tot: dict[int, float] = {}
        for u, d in enumerate(lg.deg):
            tot[comm[u]] = tot.get(comm[u], 0.0) + d
        tots.append(tot)

    moved_any = False
    while True:
        moved = False
        for u in rng.permutation(n):
            u = int(u)
            a = comm[u]
            for lg, tot in zip(graphs, tots):
                tot[a] -= lg.deg[u]
            # weight from u to each candidate community, per graph
            links: list[dict[int, float]] = []
            candidates: set[int] = {a}
            for lg in graphs:
                w_uc: dict[int, float] = {}
                for v, w in lg.adj[u].items():
                    c = comm[v]
                    w_uc[c] = w_uc.get(c, 0.0) + w
                links.append(w_uc)
                candidates.update(w_uc)

            def gain(c: int) -> float:
                g = 0.0
                for lg, tot, w_uc in zip(graphs, tots, links):
                    if lg.two_m == 0:
                        continue
                    g += (2.0 / lg.two_m) * (
                        w_uc.get(c, 0.0) - lg.deg[u] * tot.get(c, 0.0) / lg.two_m
                    )
                return g / num_graphs

            stay = gain(a)
            best_c, best_gain = a, stay
            for c in sorted(candidates):
                if c == a:
                    continue
                g = gain(c)
                if g > best_gain + _GAIN_TOL:
                    best_c, best_gain = c, g
            comm[u] = best_c
            for lg, tot in zip(graphs, tots):
                tot[best_c] = tot.get(best_c, 0.0) + lg.deg[u]
            if best_c != a:
                moved = True
        if not moved:
            break
        moved_any = True
    return moved_any


def _contract(
    graphs: list[_LevelGraph], comm: list[int]
) -> tuple[list[_LevelGraph], dict[int, int]]:
    ids = sorted(set(comm))
    renum = {c: i for i, c in enumerate(ids)}
    new_graphs: list[_LevelGraph] = []
    for lg in graphs:
        n_new = len(ids)
        adj: list[dict[int, float]] = [dict() for _ in range(n_new)]
        loop = [0.0] * n_new
        for u, l in enumerate(lg.loop):
            loop[renum[comm[u]]] += l
        for u, nbrs in enumerate(lg.adj):
            cu = renum[comm[u]]
            for v, w in nbrs.items():
                if u > v:
                    continue
                cv = renum[comm[v]]
                if cu == cv:
                    loop[cu] += w
                else:
                    a, b = (cu, cv) if cu < cv else (cv, cu)
                    adj[a][b] = adj[a].get(b, 0.0) + w
                    adj[b][a] = adj[b].get(a, 0.0) + w
        new_graphs.append(_LevelGraph(adj, loop))
    return new_graphs, renum


def _louvain_core(
    adjs: list[list[dict[int, float]]],
    n: int,
    seed: int,
    init: list[int] | None = None,
) -> list[int]:
    """Shared driver; returns the community of each node."""
    num_graphs = len(adjs)
    graphs = [_LevelGraph(adj, [0.0] * n) for adj in adjs]
    membership = list(range(n))
    comm = list(init) if init is not None else list(range(n))
    rng = rng_for(seed, "louvain")
    while True:
        moved = _one_level(graphs, comm, rng, num_graphs)
        if not moved:
            break
        graphs, renum = _contract(graphs, comm)
        membership = [renum[comm[membership[orig]]] for orig in range(n)]
        comm = list(range(len(renum)))
    final = [comm[membership[orig]] for orig in range(n)]
    return final


def louvain_multi(
    graphs: Sequence[WeightedGraph], seed: int, init: Partition | None = None
) -> Partition:
    """Louvain over several graphs on one node set, averaging move gains across them."""
    labels = graphs[0].labels if graphs else ()
    if any(g.labels != labels for g in graphs[1:]):
        raise ValueError("louvain_multi needs graphs over one node set")
    if not labels:
        raise ValueError("no nodes to cluster")
    init_ids = _init_ids(init, labels) if init is not None else None
    final = _louvain_core([g.adj for g in graphs], len(labels), seed, init_ids)
    return Partition({labels[i]: c for i, c in enumerate(final)}).canonical()


def _init_ids(init: Partition, labels: Sequence[str]) -> list[int]:
    # nodes absent from init start as fresh singletons
    ids = []
    next_id = 0
    seen: dict[int, int] = {}
    for u in labels:
        if u in init.assignment:
            cid = init.assignment[u]
            if cid not in seen:
                seen[cid] = next_id
                next_id += 1
            ids.append(seen[cid])
        else:
            ids.append(next_id)
            next_id += 1
    return ids


def louvain(graph: WeightedGraph, seed: int) -> Partition:
    """Greedy modularity maximization by node moves and graph contraction."""
    return louvain_multi([graph], seed)


def stabilized_louvain(graph: WeightedGraph, init: Partition, seed: int) -> Partition:
    """Louvain seeded from a previous partition instead of all-singletons."""
    return louvain_multi([graph], seed, init=init.restrict(graph.nodes))


# ---------------------------------------------------------------------------
# Label propagation
# ---------------------------------------------------------------------------

def label_propagation(graph: WeightedGraph, seed: int, max_sweeps: int = 100) -> Partition:
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
    for _ in range(max_sweeps):
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

WALK_LENGTH = 4  # steps of the random walks whose profiles are compared


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
        if init is None:
            init = Partition.singletons(graph.nodes)
        return stabilized_louvain(graph, init, spec.seed)
    if spec.kind == "label-propagation":
        return label_propagation(graph, spec.seed)
    return walktrap(graph)

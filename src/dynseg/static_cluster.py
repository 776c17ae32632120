"""Weighted static-graph community detection primitives.

Four methods, run by ``cluster`` under their kind in ``KINDS``: Louvain,
Louvain initialized from a given partition (stabilized Louvain),
asynchronous label propagation, and random-walk agglomerative clustering.
All of them are deterministic given (graph, seed): randomized node orders
come from the seed and every tie-break is pinned.  Returned
partitions are built on the graph's own labels tuple, so they cover exactly
its nodes.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._seeds import rng_for
from .dyngraph import Partition, dense_codes

KINDS = ("louvain", "stabilized-louvain", "lpa", "walktrap")  # cluster() runs these
_GAIN_TOL = 1e-12
MAX_SWEEPS = 100  # label propagation sweeps before it stops unconverged
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

    # The library does not call this; bench/tracing.py reads its node count.
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
        cls, n: int, a: np.ndarray, b: np.ndarray, pair: np.ndarray, offsets: np.ndarray
    ) -> "LevelGraph":
        """Mean modularity over G snapshots on nodes 0..n-1.

        Pair p joins ``a[p] < b[p]`` and pairs ascend by (a, b); snapshot g
        holds pairs ``pair[offsets[g]:offsets[g + 1]]``, each once.  A pair no
        snapshot holds, whatever its ends, and an edgeless snapshot add nothing.
        """
        num_snaps = len(offsets) - 1
        m = np.diff(offsets)
        snap = np.repeat(np.arange(num_snaps), m)
        inv_m = np.divide(1.0, m, out=np.zeros(num_snaps), where=m > 0)
        # a_g = 1 / (G m_g), summed per pair in time order; held pairs weigh > 0
        weight = np.bincount(pair, weights=inv_m[snap] / num_snaps, minlength=len(a))
        held = np.flatnonzero(weight)
        deg = np.bincount(a[pair] * num_snaps + snap, minlength=n * num_snaps)
        deg += np.bincount(b[pair] * num_snaps + snap, minlength=n * num_snaps)
        x = deg.reshape(n, num_snaps) * (math.sqrt(2.0 / num_snaps) / 2.0 * inv_m)
        return cls(_rows(n, a[held], b[held], weight[held]), x, 1.0)


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
    return Partition.from_codes(labels, [comm[c] for c in membership])


def _init_ids(init: Partition, labels: Sequence[str]) -> list[int]:
    # init's code of each label, a fresh id past its codes for a label it
    # lacks (a singleton), renumbered in order of first appearance
    ids = init.codes_by_id(dict(zip(labels, range(len(labels)))))
    ids[ids < 0] = init.num_clusters + np.flatnonzero(ids < 0)
    return dense_codes(ids).tolist()


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
    lab = list(range(len(labels)))
    _propagate(_rows(len(labels), graph.a, graph.b, graph.w), lab, rng_for(seed, "lpa"), MAX_SWEEPS)
    return Partition.from_codes(labels, lab)


def _propagate(
    adj: list[dict[int, float]], lab: list[int], rng: np.random.Generator, sweeps: int
) -> None:
    # up to ``sweeps`` sweeps of label propagation, updating ``lab`` in place
    n = len(lab)
    for _ in range(sweeps):
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


# A lockstep batch holds its graphs' rows, an id and a weight per end of
# each edge, in a buffer of half this size that every batch of a call
# reuses, and its per-graph state and per-node arrays (an rng and about 1 KB
# per graph, about 16 int arrays over the nodes) in the other half.  A batch
# ends before the next graph would overflow either half.  One worker's
# interleaved half of a k=32, n=50 exhaustive fill (264 sum graphs, 7.1-7.3
# MiB of rows and 1.9 MiB of state) fits in one batch: on three generated
# networks its lockstep steps fell from 1,150-1,250 in eight batches of 2 MB
# to 200-250, and the stragglers' dict loops from 5-18 ms to 2-3 ms.
LPA_BATCH_BYTES = 16 << 20
_LPA_ENTRY_BYTES, _LPA_NODE_BYTES, _LPA_GRAPH_BYTES = 16, 128, 1024
# A sweep whose graphs visit fewer nodes per lockstep step than this (their
# nodes with edges over the most any of them has) runs each graph alone: a
# step's dozen numpy calls cost more than a few graphs' dict loops.
_MIN_LOCKSTEP_WIDTH = 8


def label_propagation_many(
    graphs: Iterable[WeightedGraph], seeds: Iterable[int]
) -> list[Partition]:
    """``[label_propagation(g, s) for g, s in zip(graphs, seeds)]``, with the
    graphs' sweeps run in lockstep.

    Graphs are taken one at a time, so a generator bounds what is held to
    one batch of about ``LPA_BATCH_BYTES``.  Each graph draws its own
    permutations; at step s of a sweep every graph of the batch visits the
    s-th node of its own permutation, and one ``np.bincount`` over those
    nodes' rows, in edge order, sums every label weight with the same float
    additions as the dict loop.  A graph that changes nothing in a sweep
    leaves the batch.
    """
    out: list[Partition] = []
    half = LPA_BATCH_BYTES // 2
    nbr = np.empty(half // _LPA_ENTRY_BYTES, dtype=np.intp)
    wt = np.empty(len(nbr))
    batch: list[tuple[tuple[str, ...], np.random.Generator, np.ndarray]] = []
    used = nodes = 0
    for graph, seed in zip(graphs, seeds):
        n, m = len(graph.labels), len(graph.w)
        if not n:
            raise ValueError("no nodes to cluster")
        state = _LPA_NODE_BYTES * (nodes + n) + _LPA_GRAPH_BYTES * (len(batch) + 1)
        if batch and (used + 2 * m > len(nbr) or state > half):
            out += _lockstep(batch, nbr[:used], wt[:used])
            batch, used, nodes = [], 0, 0
        if 2 * m > len(nbr):
            nbr, wt = np.empty(2 * m, dtype=np.intp), np.empty(2 * m)
        # rows in edge order: sorting the keys (row node, edge) keeps it
        keys = np.sort(np.concatenate((graph.a, graph.b)) * m + np.tile(np.arange(m), 2))
        row, edge = np.divmod(keys, max(m, 1))
        np.subtract((graph.a + graph.b)[edge], row - nodes, out=nbr[used:used + 2 * m])
        np.take(graph.w, edge, out=wt[used:used + 2 * m])
        batch.append((graph.labels, rng_for(seed, "lpa"), np.bincount(row, minlength=n)))
        used += 2 * m
        nodes += n
    if batch:
        out += _lockstep(batch, nbr[:used], wt[:used])
    return out


def _lockstep(batch: list, nbr: np.ndarray, wt: np.ndarray) -> list[Partition]:
    """Label propagation of a batch of graphs joined into one id space, whose
    nodes' rows are ``nbr`` and ``wt`` in node order."""
    labels, rngs, degs = zip(*batch)
    sizes = [len(x) for x in labels]
    base = np.cumsum([0] + sizes)
    deg = np.concatenate(degs)
    del degs
    ptr = np.concatenate(([0], np.cumsum(deg)))  # node u's row is nbr[ptr[u]:ptr[u + 1]]
    graph_of = np.repeat(np.arange(len(sizes)), sizes)
    lab = np.arange(base[-1])
    # graphs by nodes with edges, most first: the graphs with more than s
    # such nodes, which visit one at step s of a sweep, lead the active ones
    width = np.bincount(graph_of, weights=deg > 0, minlength=len(sizes)).astype(np.intp)
    active = sorted(range(len(sizes)), key=lambda g: -width[g])
    for sweep in range(MAX_SWEEPS):
        m = width[active]
        if m.sum() < _MIN_LOCKSTEP_WIDTH * m.max():
            for g in active:
                lo, hi = base[g], base[g + 1]
                cut = (ptr[lo:hi + 1] - ptr[lo]).tolist()
                row_nbr = (nbr[ptr[lo]:ptr[hi]] - lo).tolist()
                row_wt = wt[ptr[lo]:ptr[hi]].tolist()
                adj = [dict(zip(row_nbr[x:y], row_wt[x:y])) for x, y in zip(cut, cut[1:])]
                rest = (lab[lo:hi] - lo).tolist()
                _propagate(adj, rest, rngs[g], MAX_SWEEPS - sweep)
                lab[lo:hi] = np.add(rest, lo)
            break
        visit = np.concatenate([rngs[g].permutation(sizes[g]) + base[g] for g in active])
        visit = visit[deg[visit] > 0]  # a node without edges keeps its label
        # step-major order: step s holds the s-th visit of each graph with more
        pos = np.arange(len(visit)) - np.repeat(np.cumsum(m) - m, m)
        per_step = np.bincount(pos)
        first = np.cumsum(per_step) - per_step
        steps = np.empty_like(visit)
        steps[first[pos] + np.repeat(np.arange(len(active)), m)] = visit
        # each visit's run of neighbour entries within its step
        d = deg[steps]
        off = np.cumsum(d)
        total = np.diff(off[first + per_step - 1], prepend=0).tolist()
        off -= d + np.repeat(off[first] - d[first], per_step)
        start = ptr[steps] - off
        before = lab.copy()
        for lo, hi, t in zip(first.tolist(), (first + per_step).tolist(), total):
            u, o, dd = steps[lo:hi], off[lo:hi], d[lo:hi]
            idx = np.repeat(start[lo:hi], dd) + np.arange(t)
            ln = lab[nbr[idx]]
            # label weights summed from 0.0 in edge order, as the dict loop adds
            weight = np.bincount(ln, weights=wt[idx])[ln]
            top = np.maximum.reduceat(weight, o)
            ok = weight >= np.repeat(top - _GAIN_TOL, dd)
            lab[u] = np.minimum.reduceat(np.where(ok, ln, len(lab)), o)
        # a node is set only when visited, so a graph changed this sweep
        # exactly when its labels differ from the sweep's start
        changed = np.bincount(graph_of, weights=lab != before, minlength=len(sizes))
        active = [g for g in active if changed[g]]
        if not active:
            break
    return [Partition.from_codes(x, lab[lo:hi])
            for x, lo, hi in zip(labels, base.tolist(), base[1:].tolist())]


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
        return Partition.from_codes(labels, range(n))
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

    # replay merges up to the best level, latest first: both halves of a merge
    # take the community id that the merged community ends up in
    root = list(range(na + best_step))
    for cid, (c1, c2) in reversed(list(enumerate(merges[:best_step], start=na))):
        root[c1] = root[c2] = root[cid]
    ids = np.arange(n)  # a degree-0 node keeps its own id, below every community's
    ids[active] = n + np.array(root[:na], dtype=np.intp)
    return Partition.from_codes(labels, ids)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def cluster(
    graph: WeightedGraph, kind: str, seed: int, init: Partition | None = None
) -> Partition:
    """The ``kind`` clusterer's partition of graph; walktrap draws no seed, and
    only stabilized-louvain starts from ``init``."""
    if kind in ("louvain", "stabilized-louvain"):
        init = init if kind == "stabilized-louvain" else None
        return louvain_multi(graph.labels, LevelGraph.of_graph(graph), seed, init)
    if kind == "lpa":
        return label_propagation(graph, seed)
    if kind == "walktrap":
        return walktrap(graph)
    raise ValueError(f"unknown clusterer kind {kind!r}")

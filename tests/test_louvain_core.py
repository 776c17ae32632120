"""The one-level-graph Louvain core checked against the list-of-graphs core.

The reference below is the Louvain code that ``static_cluster`` used before
it folded average-Louvain into one scaled union graph: one ``_LevelGraph``
per snapshot, with self-loops and a ``two_m`` each, every move scored by
the mean gain over the list and every graph contracted in parallel.  Its
local move follows the core's queue (Traag, Waltman & van Eck 2019): one
seeded permutation per level, and a moved node wakes its neighbours over
the union of the graphs' rows in ascending id order.  The core must return
the identical assignment.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from dynseg._seeds import derive_seed, rng_for
from dynseg.consensus import Consensus, segment_partition
from dynseg.dyngraph import Partition
from dynseg.static_cluster import WeightedGraph, cluster
from label_graphs import (
    Snapshot, assignment, label_graph, network_of, restrict, rows, snapshot_at,
)

_GAIN_TOL = 1e-12


# ---------------------------------------------------------------------------
# Reference: the list-of-graphs Louvain core, unchanged.
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

    # the fast local move: a node that moves wakes, in ascending id order,
    # its neighbours in any graph that are neither queued nor in its new
    # community
    queue = deque(rng.permutation(n).tolist())
    queued = [True] * n
    moved_any = False
    while queue:
        u = queue.popleft()
        queued[u] = False
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
            moved_any = True
            for v in sorted(set().union(*(lg.adj[u] for lg in graphs))):
                if not queued[v] and comm[v] != best_c:
                    queued[v] = True
                    queue.append(v)
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


def reference_louvain_multi(
    graphs: Sequence[WeightedGraph], seed: int, init: Partition | None = None
) -> Partition:
    """Louvain over several graphs on one node set, averaging move gains across them."""
    labels = graphs[0].labels if graphs else ()
    if any(g.labels != labels for g in graphs[1:]):
        raise ValueError("louvain_multi needs graphs over one node set")
    if not labels:
        raise ValueError("no nodes to cluster")
    init_ids = _init_ids(init, labels) if init is not None else None
    final = _louvain_core([rows(g) for g in graphs], len(labels), seed, init_ids)
    return Partition({labels[i]: c for i, c in enumerate(final)})


def _init_ids(init: Partition, labels: Sequence[str]) -> list[int]:
    # nodes absent from init start as fresh singletons
    ids = []
    next_id = 0
    seen: dict[int, int] = {}
    assign = assignment(init)
    for u in labels:
        if u in assign:
            cid = assign[u]
            if cid not in seen:
                seen[cid] = next_id
                next_id += 1
            ids.append(seen[cid])
        else:
            ids.append(next_id)
            next_id += 1
    return ids


def segment_labels(network, start, end):
    return frozenset().union(*(snapshot_at(network, j).nodes for j in range(start, end + 1)))


def reference_average_louvain(network, segment, seed):
    start, end = segment
    nodes = segment_labels(network, start, end)
    graphs = []
    for j in range(start, end + 1):
        g = snapshot_at(network, j)
        graphs.append(label_graph(nodes, {e: 1.0 for e in g.edges}))
    return reference_louvain_multi(graphs, seed)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

LABELS = [f"n{i}" for i in range(9)]
EXTRA = ["x", "y"]  # init labels that the graph does not hold


@st.composite
def segments(draw):
    """A network and a segment with empty, edgeless and isolated-node snapshots."""
    k = draw(st.integers(1, 6))
    snapshots = []
    for _ in range(k):
        nodes = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=9))
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        snapshots.append(Snapshot(nodes, edges))
    net = network_of(snapshots)
    start = draw(st.integers(0, k - 1))
    end = draw(st.integers(start, k - 1))
    return net, (start, end)


@st.composite
def weighted_graphs(draw):
    nodes = draw(st.lists(st.sampled_from(LABELS), unique=True, min_size=1, max_size=9))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)
    return label_graph(nodes, {e: draw(weights) for e in chosen})


@st.composite
def inits(draw, graph):
    domain = draw(st.lists(st.sampled_from(list(graph.labels) + EXTRA), unique=True))
    cids = draw(st.lists(st.integers(-2, 5), min_size=len(domain), max_size=len(domain)))
    return Partition(dict(zip(domain, cids)))


@settings(max_examples=300)
@given(segments(), st.integers(0, 2**31 - 1))
def test_average_louvain_matches_list_of_graphs(case, seed):
    net, segment = case
    start, end = segment
    if not segment_labels(net, start, end):
        return
    got = segment_partition(net, segment, Consensus.AVG_LOUVAIN, seed)
    expected = reference_average_louvain(net, segment, derive_seed(seed, "segment", start, end))
    assert assignment(got) == assignment(expected)


@settings(max_examples=300)
@given(weighted_graphs(), st.integers(0, 2**31 - 1))
def test_louvain_matches_list_of_graphs(graph, seed):
    expected = reference_louvain_multi([graph], seed)
    assert assignment(cluster(graph, "louvain", seed)) == assignment(expected)


@settings(max_examples=300)
@given(st.data(), weighted_graphs(), st.integers(0, 2**31 - 1))
def test_stabilized_louvain_matches_list_of_graphs(data, graph, seed):
    init = data.draw(inits(graph))
    expected = reference_louvain_multi([graph], seed, init=restrict(init, graph.nodes))
    assert assignment(cluster(graph, "stabilized-louvain", seed, init)) == assignment(expected)

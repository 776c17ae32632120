"""Label-keyed graph builders for the tests.

A ``WeightedGraph`` is its sorted labels and its edge arrays ``(a, b, w)``,
which the library's builders fill from id arrays.  The tests state their
graphs by label, so the label-keyed constructor lives here.  So do ``rows``,
the per-node neighbour dicts filled in edge order, which the reference
clusterers read and which the clusterers that loop in Python build for
themselves; the string-keyed co-occurrence count that serves as the
reference for ``consensus.co_occurrence_graph``; and ``restrict``, a
partition cut down to a node set, for the label-keyed reference loops.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from dynseg._seeds import derive_seed
from dynseg.dyngraph import DynamicNetwork, Partition, Snapshot
from dynseg.static_cluster import ClustererSpec, WeightedGraph, cluster


def label_graph(
    nodes: Iterable[str], edges: Mapping[tuple[str, str], float]
) -> WeightedGraph:
    """Graph on ``nodes`` plus every edge endpoint; edges keep their order,
    each as (smaller id, larger id)."""
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
    labels = tuple(sorted(node_set))
    index = {u: i for i, u in enumerate(labels)}
    a = np.array([index[u] for u, _ in canon], dtype=np.intp)
    b = np.array([index[v] for _, v in canon], dtype=np.intp)
    return WeightedGraph(labels, a, b, np.array(list(canon.values()), dtype=float))


def rows(graph: WeightedGraph) -> list[dict[int, float]]:
    """Per node id, a dict from neighbour id to edge weight, filled in edge order."""
    adj: list[dict[int, float]] = [{} for _ in graph.labels]
    for u, v, w in zip(graph.a.tolist(), graph.b.tolist(), graph.w.tolist()):
        adj[u][v] = adj[v][u] = w
    return adj


def restrict(p: Partition, nodes: Iterable[str]) -> Partition:
    """Partition of ``p.domain`` intersect ``nodes``; empty clusters drop out."""
    return Partition({u: p.assignment[u] for u in p.domain & frozenset(nodes)})


def snapshot_graph(g: Snapshot) -> WeightedGraph:
    return label_graph(g.nodes, {e: 1.0 for e in g.edges})


def edge_weights(graph: WeightedGraph) -> dict[tuple[str, str], float]:
    """A fresh {(u, v): weight} dict with u < v, in edge order."""
    labels = graph.labels
    return {
        (labels[min(u, v)], labels[max(u, v)]): w
        for u, v, w in zip(graph.a.tolist(), graph.b.tolist(), graph.w.tolist())
    }


def co_occurrence_weights(
    network: DynamicNetwork, segment: tuple[int, int], clusterer: ClustererSpec
) -> dict[tuple[str, str], float]:
    """Fraction of shared snapshots placing each node pair in one cluster.

    Pairs never placed together are absent; the denominator counts only
    snapshots where both nodes are present.  Keys come in the order in which
    their pairs are first placed together.
    """
    start, end = segment
    together: dict[tuple[str, str], int] = {}
    shared: dict[tuple[str, str], int] = {}
    prev: Partition | None = None
    for j in range(start, end + 1):
        g = network[j]
        if not g.nodes:
            continue
        spec_j = ClustererSpec(clusterer.kind, derive_seed(clusterer.seed, "cm-snapshot", j))
        p = cluster(snapshot_graph(g), spec_j, init=prev)
        prev = p
        ordered = sorted(g.nodes)
        assign = p.assignment
        for idx, u in enumerate(ordered):
            for v in ordered[idx + 1:]:
                key = (u, v)
                shared[key] = shared.get(key, 0) + 1
                if assign[u] == assign[v]:
                    together[key] = together.get(key, 0) + 1
    return {key: together[key] / shared[key] for key in together}


def reference_co_occurrence_graph(
    network: DynamicNetwork, segment: tuple[int, int], clusterer: ClustererSpec
) -> WeightedGraph:
    """The co-occurrence graph built through the label-keyed constructor."""
    start, end = segment
    nodes = frozenset().union(*(network[j].nodes for j in range(start, end + 1)))
    return label_graph(nodes, co_occurrence_weights(network, segment, clusterer))

"""Consensus clustering: one partition per segment.

Three ways to reconcile the snapshots of a segment into a single partition:

* sum graph: cluster the weighted union graph whose edge weights count how
  many snapshots of the segment contain each edge;
* average-Louvain: Louvain where every move is scored by its mean
  modularity gain across the segment's snapshots;
* consensus matrix: cluster each snapshot, then cluster the co-occurrence
  graph whose weights are the fraction of shared snapshots in which two
  nodes land in one cluster.

The partition domain is always the union of the segment's node sets; a
per-segment seed derived from (base seed, start, end) makes results
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seed
from .dyngraph import DynamicNetwork, Partition
from .static_cluster import ClustererSpec, LevelGraph, WeightedGraph, cluster, louvain_multi

CONSENSUS_METHODS = ("sum-graph", "average-louvain", "consensus-matrix")


@dataclass(frozen=True)
class ConsensusSpec:
    """Pins the consensus method and, where applicable, its static clusterer."""

    method: str
    clusterer: ClustererSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in CONSENSUS_METHODS:
            raise ValueError(f"unknown consensus method {self.method!r}")
        if self.method == "average-louvain":
            if self.clusterer is not None:
                raise ValueError("average-louvain does not take a static clusterer")
        elif self.clusterer is None:
            raise ValueError(f"{self.method} needs a static clusterer")


def _segment_edges(
    network: DynamicNetwork, start: int, end: int
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The segment's sorted labels and its edges (u < v) in segment-local ids, in time order."""
    present = np.zeros(len(network.labels), dtype=bool)
    present[network.segment_node_ids(start, end)] = True
    local = np.cumsum(present) - 1  # global id -> id within the segment
    u, v = network.segment_edges(start, end)
    labels = network.labels
    return tuple(labels[i] for i in np.flatnonzero(present).tolist()), local[u], local[v]


def sum_graph(network: DynamicNetwork, start: int, end: int) -> WeightedGraph:
    """Weighted union of the segment's snapshots; weight = occurrence count."""
    labels, u, v = _segment_edges(network, start, end)
    n = len(labels)
    keys = np.sort(u * n + v)
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))  # first entry of each distinct edge
    counts = np.diff(firsts, append=len(keys)).astype(float)
    a, b = np.divmod(keys[firsts], n)
    return WeightedGraph(labels, a, b, counts)


def consensus_sum_graph(
    network: DynamicNetwork, segment: tuple[int, int], clusterer: ClustererSpec
) -> Partition:
    start, end = segment
    return cluster(sum_graph(network, start, end), clusterer)


def consensus_average_louvain(
    network: DynamicNetwork, segment: tuple[int, int], seed: int
) -> Partition:
    start, end = segment
    labels, u, v = _segment_edges(network, start, end)
    offsets = network.edge_offsets[start:end + 2]
    return louvain_multi(
        labels, LevelGraph.of_snapshots(len(labels), u, v, offsets - offsets[0]), seed
    )


def _pair_keys(member: np.ndarray, local: np.ndarray, n: int) -> np.ndarray:
    """Sorted keys ``local[a] * n + local[b]``, a < b, of pairs with equal ``member``.

    Memory is linear in the pairs.  For ascending ``local`` these are the keys
    of the n x n upper-triangle mask of equal members, read row by row.
    """
    order = np.argsort(member, kind="stable")
    ids, grouped = local[order], member[order]
    pos = np.arange(len(ids))
    # members of its cluster after each node, then those pairs one by one
    later = np.searchsorted(grouped, grouped, side="right") - pos - 1
    a = np.repeat(pos, later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    return np.sort(ids[a] * n + ids[b])


def co_occurrence_graph(
    network: DynamicNetwork, segment: tuple[int, int], clusterer: ClustererSpec
) -> WeightedGraph:
    """Graph of the fraction of shared snapshots placing two nodes in one cluster.

    Pairs never placed together get no edge; the denominator counts only
    snapshots where both nodes are present.  Edges come in the order in which
    their pairs are first placed together, snapshot by snapshot and in (u, v)
    order within one, because the final clusterer's float sums follow it.
    """
    start, end = segment
    seg_ids = np.unique(network.segment_node_ids(start, end))
    n = len(seg_ids)
    present = np.zeros((end - start + 1, n), dtype=bool)
    keys = []  # u * n + v of each pair placed together, snapshot by snapshot
    prev: Partition | None = None
    for j in range(start, end + 1):
        ids = network.segment_node_ids(j, j)
        if not ids.size:
            continue
        graph = sum_graph(network, j, j)  # the snapshot's edges in stored order
        spec_j = ClustererSpec(clusterer.kind, derive_seed(clusterer.seed, "cm-snapshot", j))
        # the initialized variant chains each snapshot from its predecessor
        prev = cluster(graph, spec_j, init=prev)
        member = np.array([prev.assignment[x] for x in graph.labels])
        local = np.searchsorted(seg_ids, ids)
        present[j - start, local] = True
        keys.append(_pair_keys(member, local, n))
    pairs, first, together = np.unique(
        np.concatenate(keys), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    a, b = np.divmod(pairs[order], n)
    shared = np.count_nonzero(present[:, a] & present[:, b], axis=0)
    labels = tuple(network.labels[i] for i in seg_ids.tolist())
    return WeightedGraph(labels, a, b, together[order] / shared)


def consensus_matrix(
    network: DynamicNetwork, segment: tuple[int, int], clusterer: ClustererSpec
) -> Partition:
    final_spec = ClustererSpec(clusterer.kind, derive_seed(clusterer.seed, "cm-final"))
    return cluster(co_occurrence_graph(network, segment, clusterer), final_spec)


def segment_partition(
    network: DynamicNetwork, segment: tuple[int, int], spec: ConsensusSpec
) -> Partition:
    """Consensus partition of one segment under a deterministic derived seed.

    A segment whose snapshots are all empty gets the empty partition.
    """
    start, end = segment
    if not network.segment_node_ids(start, end).size:
        return Partition({})
    seg_seed = derive_seed(spec.seed, "segment", start, end)
    if spec.method == "sum-graph":
        sub = ClustererSpec(spec.clusterer.kind, seg_seed)
        return consensus_sum_graph(network, segment, sub)
    if spec.method == "average-louvain":
        return consensus_average_louvain(network, segment, seg_seed)
    sub = ClustererSpec(spec.clusterer.kind, seg_seed)
    return consensus_matrix(network, segment, sub)

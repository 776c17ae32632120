"""Consensus clustering: one partition per segment.

Three ways to reconcile the snapshots of a segment into a single partition:

* sum graph: cluster the weighted union graph whose edge weights count how
  many snapshots of the segment contain each edge, one bincount of pair ids;
* average-Louvain: Louvain where every move is scored by its mean
  modularity gain across the segment's snapshots, summed by pair id;
* consensus matrix: cluster each snapshot, then cluster the co-occurrence
  graph whose weights are the fraction of shared snapshots in which two
  nodes land in one cluster.

``segment_partition`` is the one entry point for a segment, and
``segment_partitions`` for a list of them; a ``Consensus`` member names the
method and its clusterer kind, which ``static_cluster.cluster`` runs.  The
partition domain is always the union of the segment's node sets; a
per-segment seed derived from (search seed, start, end) makes results
independent of evaluation order, so a list's sum-lpa partitions can be
computed together.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress

import numpy as np

from ._seeds import derive_seed
from .dyngraph import DynamicNetwork, Partition
from .static_cluster import (
    LevelGraph, WeightedGraph, cluster, label_propagation_many, louvain_multi,
)


class Consensus(str, Enum):
    """A consensus method and its static clusterer, named ``<method>-<kind>``:
    the method is ``sum`` (sum graph), ``avg`` (average-Louvain) or
    ``cmatrix`` (consensus matrix), and the kind is one of
    ``static_cluster.KINDS``."""

    SUM_LOUVAIN = "sum-louvain"
    SUM_WALKTRAP = "sum-walktrap"
    SUM_LPA = "sum-lpa"
    AVG_LOUVAIN = "avg-louvain"
    CMATRIX_LOUVAIN = "cmatrix-louvain"
    CMATRIX_STABILIZED_LOUVAIN = "cmatrix-stabilized-louvain"
    CMATRIX_WALKTRAP = "cmatrix-walktrap"
    CMATRIX_LPA = "cmatrix-lpa"


def _segment_nodes(
    network: DynamicNetwork, start: int, end: int
) -> tuple[tuple[str, ...], np.ndarray]:
    """The segment's sorted labels, and the id within the segment of every network id."""
    present = np.zeros(len(network.labels), dtype=bool)
    present[network.segment_node_ids(start, end)] = True
    labels = network.labels
    return tuple(labels[i] for i in present.nonzero()[0].tolist()), present.cumsum() - 1


def sum_graph(network: DynamicNetwork, start: int, end: int) -> WeightedGraph:
    """Weighted union of the segment's snapshots; weight = occurrence count,
    from one bincount of the segment's pair ids, so edges ascend by (u, v)."""
    labels, local = _segment_nodes(network, start, end)
    lo, hi = network.edge_offsets[start], network.edge_offsets[end + 1]
    counts = np.bincount(network.edge_pair[lo:hi])
    pairs = counts.nonzero()[0]
    a, b = local[network.pair_u[pairs]], local[network.pair_v[pairs]]
    return WeightedGraph(labels, a, b, counts[pairs].astype(float))


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
    network: DynamicNetwork, segment: tuple[int, int], kind: str, seed: int
) -> WeightedGraph:
    """Graph of the fraction of shared snapshots placing two nodes in one cluster.

    Pairs never placed together get no edge; the denominator counts only
    snapshots where both nodes are present.  Edges come in the order in which
    their pairs are first placed together, snapshot by snapshot and in (u, v)
    order within one, because the final clusterer's float sums follow it.
    """
    start, end = segment
    labels, local_of = _segment_nodes(network, start, end)
    n = len(labels)
    present = np.zeros((end - start + 1, n), dtype=bool)
    keys = []  # u * n + v of each pair placed together, snapshot by snapshot
    prev: Partition | None = None
    for j in range(start, end + 1):
        ids = network.segment_node_ids(j, j)
        if not ids.size:
            continue
        graph = sum_graph(network, j, j)  # the snapshot's edges in stored order
        # the initialized variant chains each snapshot from its predecessor
        prev = cluster(graph, kind, derive_seed(seed, "cm-snapshot", j), init=prev)
        local = local_of[ids]
        present[j - start, local] = True
        keys.append(_pair_keys(prev.codes, local, n))
    pairs, first, together = np.unique(
        np.concatenate(keys), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    a, b = np.divmod(pairs[order], n)
    shared = np.count_nonzero(present[:, a] & present[:, b], axis=0)
    return WeightedGraph(labels, a, b, together[order] / shared)


def segment_partition(
    network: DynamicNetwork, segment: tuple[int, int], spec: Consensus, seed: int
) -> Partition:
    """Consensus partition of one segment under a seed derived from
    (seed, start, end).

    A segment whose snapshots are all empty gets the empty partition.
    """
    start, end = segment
    if not network.segment_node_ids(start, end).size:
        return Partition({})
    seg_seed = derive_seed(seed, "segment", start, end)
    method, kind = spec.value.split("-", 1)
    if method == "sum":
        return cluster(sum_graph(network, start, end), kind, seg_seed)
    if method == "avg":
        labels, local = _segment_nodes(network, start, end)
        offsets = network.edge_offsets[start:end + 2]
        a, b = local[network.pair_u], local[network.pair_v]
        pair = network.edge_pair[offsets[0]:offsets[-1]]
        level = LevelGraph.of_snapshots(len(labels), a, b, pair, offsets - offsets[0])
        return louvain_multi(labels, level, seg_seed)
    graph = co_occurrence_graph(network, segment, kind, seg_seed)
    return cluster(graph, kind, derive_seed(seg_seed, "cm-final"))


def segment_partitions(
    network: DynamicNetwork, segments: list[tuple[int, int]], spec: Consensus, seed: int
) -> list[Partition]:
    """``segment_partition`` of each segment.

    Under sum-lpa, the segments' sum graphs are built one at a time and
    clustered together by ``label_propagation_many``, which runs their
    sweeps in lockstep batches of bounded size.
    """
    if spec is not Consensus.SUM_LPA:
        return [segment_partition(network, s, spec, seed) for s in segments]
    has_nodes = [network.segment_node_ids(start, end).size > 0 for start, end in segments]
    full = list(compress(segments, has_nodes))
    parts = iter(label_propagation_many(
        (sum_graph(network, start, end) for start, end in full),
        (derive_seed(seed, "segment", start, end) for start, end in full),
    ))
    return [next(parts) if ok else Partition({}) for ok in has_nodes]

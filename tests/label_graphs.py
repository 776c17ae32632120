"""Label-keyed graph builders for the tests.

The library holds a network as id arrays.  The tests state their snapshots
by label: ``Snapshot`` is one such graph, ``network_of`` builds a network
from a list of them through the record constructor, ``snapshot_at`` reads
snapshot j back by label, and ``assignment`` gives a partition as a
``{label: code}`` dict, for the label-keyed reference loops.

A ``WeightedGraph`` is its sorted labels and its edge arrays ``(a, b, w)``,
which the library's builders fill from id arrays.  The tests state their
graphs by label, so the label-keyed constructor lives here.  So do ``rows``,
the per-node neighbour dicts filled in edge order, which the reference
clusterers read and which the clusterers that loop in Python build for
themselves; the string-keyed co-occurrence count that serves as the
reference for ``consensus.co_occurrence_graph``; and ``restrict``, a
partition cut down to a node set, for the label-keyed reference loops.
``from_clusters``, ``singletons`` and ``clusters_of`` state partitions by
their member sets, and ``is_canonical`` checks the code order.

``sorted_sum_graph`` and ``sorted_level_graph`` are the segment graph
builders as the library wrote them before the network had its pair index:
one sort of the segment's local edge keys each.  The builders that read the
pair index must equal them bit for bit.

``segments_of`` turns change points into segment ranges, and
``output_of`` builds an output from change points.

The whole-output oracles live here too, since only the tests call them:
``segment_at`` and ``partition_at``, the index and the partition of the
segment covering a snapshot; ``partition_similarity`` and
``vmeasure_components``, which score two
``Partition``s of one domain; ``sim_t_per_snapshot``, the time-point
similarity from one code per snapshot; and ``q_p``, ``q_b`` and ``num_parameters``,
an output's objective summed segment by segment, which the search's
additive table scores must equal.  ``expected_mutual_information_gammaln``
is the expected mutual information as the library computed it before it
dropped scipy: one cluster pair at a time, with ``scipy.special.gammaln``.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from dynseg import objectives
from dynseg._seeds import derive_seed
from dynseg.dyngraph import DynamicNetwork, Partition, ScdOutput
from dynseg.evaluation import PartitionMetric, _contingency, _information, _similarity
from dynseg.objectives import Criterion, FitMeasure
from dynseg.static_cluster import LevelGraph, WeightedGraph, cluster


class Snapshot:
    """One static graph by label: a node set and a set of undirected edges
    (u, v), u <= v, whose endpoints join the node set."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()):
        self.edges = frozenset((u, v) if u <= v else (v, u) for u, v in edges)
        self.nodes = frozenset(nodes).union(*self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Snapshot) and (self.nodes, self.edges) == (
            other.nodes, other.edges
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"Snapshot({sorted(self.nodes)}, {sorted(self.edges)})"


def network_of(snapshots: Sequence[Snapshot]) -> DynamicNetwork:
    """The network of these snapshots, in order, through the record constructor."""
    index: dict[str, int] = {}
    nodes = [
        (t, index.setdefault(u, len(index))) for t, g in enumerate(snapshots) for u in g.nodes
    ]
    edges = [(t, index[u], index[v]) for t, g in enumerate(snapshots) for u, v in g.edges]
    return DynamicNetwork(len(snapshots), list(index), nodes, edges)


def snapshot_at(network: DynamicNetwork, j: int) -> Snapshot:
    """Snapshot j of the network by label."""
    j = range(network.k)[j]
    labels = network.labels
    u, v = network.segment_edges(j, j)
    return Snapshot(
        [labels[i] for i in network.segment_node_ids(j, j).tolist()],
        [(labels[a], labels[b]) for a, b in zip(u.tolist(), v.tolist())],
    )


def assignment(p: Partition) -> dict[str, int]:
    """A fresh {label: code} dict."""
    return dict(zip(p.labels, p.codes.tolist()))


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
    """Partition of p's labels that are in ``nodes``; empty clusters drop out."""
    keep = frozenset(nodes)
    return Partition({u: c for u, c in assignment(p).items() if u in keep})


def from_clusters(clusters: Iterable[Iterable[str]]) -> Partition:
    """Partition with these member lists; rejects an empty cluster and a
    node listed twice."""
    assign: dict[str, int] = {}
    for cid, members in enumerate(clusters):
        members = list(members)
        if not members:
            raise ValueError("empty cluster")
        for u in members:
            if u in assign:
                raise ValueError(f"node {u!r} assigned to two clusters")
            assign[u] = cid
    return Partition(assign)


def singletons(nodes: Iterable[str]) -> Partition:
    return from_clusters([u] for u in sorted(set(nodes)))


def clusters_of(p: Partition) -> list[frozenset[str]]:
    """Member sets of p's clusters, in code order."""
    out: list[set[str]] = [set() for _ in range(p.num_clusters)]
    for u, c in zip(p.labels, p.codes.tolist()):
        out[c].add(u)
    return [frozenset(m) for m in out]


def is_canonical(codes) -> bool:
    """Whether codes number clusters 0, 1, ... in order of first appearance."""
    first: list[int] = []
    for c in codes:
        if c not in first:
            first.append(c)
    return first == list(range(len(first)))


def snapshot_graph(g: Snapshot) -> WeightedGraph:
    return label_graph(g.nodes, {e: 1.0 for e in g.edges})


def edge_weights(graph: WeightedGraph) -> dict[tuple[str, str], float]:
    """A fresh {(u, v): weight} dict with u < v, in edge order."""
    labels = graph.labels
    return {
        (labels[min(u, v)], labels[max(u, v)]): w
        for u, v, w in zip(graph.a.tolist(), graph.b.tolist(), graph.w.tolist())
    }


def _local_edges(
    network: DynamicNetwork, start: int, end: int
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The segment's sorted labels and its edges (u < v) in segment-local ids, in time order."""
    present = np.zeros(len(network.labels), dtype=bool)
    present[network.segment_node_ids(start, end)] = True
    local = np.cumsum(present) - 1
    u, v = network.segment_edges(start, end)
    labels = network.labels
    return tuple(labels[i] for i in np.flatnonzero(present).tolist()), local[u], local[v]


def sorted_sum_graph(network: DynamicNetwork, start: int, end: int) -> WeightedGraph:
    """The sum graph from one sort of the segment's ``u * n + v`` keys."""
    labels, u, v = _local_edges(network, start, end)
    n = len(labels)
    keys = np.sort(u * n + v)
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))  # first entry of each distinct edge
    counts = np.diff(firsts, append=len(keys)).astype(float)
    a, b = np.divmod(keys[firsts], n)
    return WeightedGraph(labels, a, b, counts)


def sorted_level_graph(
    network: DynamicNetwork, start: int, end: int
) -> tuple[tuple[str, ...], LevelGraph]:
    """The segment's labels and its avg-Louvain level graph, from one sort of
    (edge, snapshot) keys."""
    labels, u, v = _local_edges(network, start, end)
    n = len(labels)
    offsets = network.edge_offsets[start:end + 2]
    num_snaps = len(offsets) - 1
    m = np.diff(offsets)
    snap = np.repeat(np.arange(num_snaps), m)
    inv_m = np.divide(1.0, m, out=np.zeros(num_snaps), where=m > 0)
    keys = np.sort((u * n + v) * num_snaps + snap)
    edge, snap_of = np.divmod(keys, num_snaps)
    first = np.diff(edge, prepend=-1) != 0
    weight = np.bincount(np.cumsum(first) - 1, weights=inv_m[snap_of] / num_snaps)
    a, b = np.divmod(edge[first], n)
    deg = np.bincount(u * num_snaps + snap, minlength=n * num_snaps)
    deg += np.bincount(v * num_snaps + snap, minlength=n * num_snaps)
    x = deg.reshape(n, num_snaps) * (math.sqrt(2.0 / num_snaps) / 2.0 * inv_m)
    return labels, LevelGraph(rows(WeightedGraph(labels, a, b, weight)), x, 1.0)


def co_occurrence_weights(
    network: DynamicNetwork, segment: tuple[int, int], kind: str, seed: int
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
        g = snapshot_at(network, j)
        if not g.nodes:
            continue
        p = cluster(snapshot_graph(g), kind, derive_seed(seed, "cm-snapshot", j), init=prev)
        prev = p
        ordered = sorted(g.nodes)
        assign = assignment(p)
        for idx, u in enumerate(ordered):
            for v in ordered[idx + 1:]:
                key = (u, v)
                shared[key] = shared.get(key, 0) + 1
                if assign[u] == assign[v]:
                    together[key] = together.get(key, 0) + 1
    return {key: together[key] / shared[key] for key in together}


def reference_co_occurrence_graph(
    network: DynamicNetwork, segment: tuple[int, int], kind: str, seed: int
) -> WeightedGraph:
    """The co-occurrence graph built through the label-keyed constructor."""
    start, end = segment
    nodes = frozenset().union(*(snapshot_at(network, j).nodes for j in range(start, end + 1)))
    return label_graph(nodes, co_occurrence_weights(network, segment, kind, seed))


def segments_of(points: Sequence[int], k: int) -> tuple[tuple[int, int], ...]:
    """The (start, end) ranges of k snapshots split at sorted change points."""
    starts = [0, *points]
    return tuple(zip(starts, [t - 1 for t in starts[1:]] + [k - 1]))


def output_of(points: Sequence[int], k: int, partitions: Iterable[Partition]) -> ScdOutput:
    """The output of k snapshots split at sorted change points."""
    return ScdOutput(segments_of(points, k), tuple(partitions))


def segment_at(output: ScdOutput, j: int) -> int:
    """Index of the segment covering snapshot j."""
    if not 0 <= j < output.k:
        raise ValueError(f"time index {j} outside [0, {output.k - 1}]")
    return bisect.bisect_right(output.change_points, j)


def partition_at(output: ScdOutput, j: int) -> Partition:
    """Segment partition covering snapshot j."""
    return output.partitions[segment_at(output, j)]


def partition_similarity(metric: PartitionMetric, p1: Partition, p2: Partition) -> float:
    """The library's similarity of two partitions of one domain."""
    if p1.labels != p2.labels:
        raise ValueError("partitions must share the same domain")
    return _similarity(metric, p1.codes, p2.codes)


def sim_t_per_snapshot(o1: ScdOutput, o2: ScdOutput, metric: PartitionMetric) -> float:
    """The library's similarity of the two outputs' segment indices, snapshot by snapshot."""
    t = np.arange(o1.k)
    return _similarity(
        metric, *(np.searchsorted(o.change_points, t, side="right") for o in (o1, o2))
    )


def vmeasure_components(p1: Partition, p2: Partition) -> tuple[float, float, float]:
    """(homogeneity, completeness, the library's v-measure), p1 the reference."""
    vm = partition_similarity(PartitionMetric.VM, p1, p2)
    h1, h2, mi = _information(_contingency(p1.codes, p2.codes), len(p1.labels))
    return 1.0 if h1 == 0 else mi / h1, 1.0 if h2 == 0 else mi / h2, vm


def expected_mutual_information_gammaln(table: np.ndarray, n: int) -> float:
    """Expected MI under the hypergeometric model, pair by pair, through gammaln."""
    from scipy.special import gammaln

    emi = 0.0
    for ai in table.sum(axis=1):
        for bj in table.sum(axis=0):
            lo, hi = max(1, ai + bj - n), min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1)
            term1 = (nij / n) * np.log(n * nij / (ai * bj))
            log_prob = (
                gammaln(ai + 1) + gammaln(bj + 1) + gammaln(n - ai + 1) + gammaln(n - bj + 1)
                - gammaln(n + 1) - gammaln(nij + 1) - gammaln(ai - nij + 1)
                - gammaln(bj - nij + 1) - gammaln(n - ai - bj + nij + 1)
            )
            emi += float((term1 * np.exp(log_prob)).sum())
    return emi


def q_p(output: ScdOutput, network: DynamicNetwork, fit: FitMeasure) -> float:
    """Mean per-snapshot fit of the output's segment partitions."""
    total = 0.0
    for p, (start, end) in zip(output.partitions, output.segments):
        for value in objectives.snapshot_fit(fit, network, start, end, p):
            total += value
    return total / network.k


def num_parameters(output: ScdOutput) -> int:
    """Blockmodel parameter count of a whole output, summed over its segments."""
    return sum(objectives.segment_num_parameters(p) for p in output.partitions)


def q_b(output: ScdOutput, network: DynamicNetwork, criterion: Criterion) -> float:
    """Penalized log-likelihood; natural logarithm throughout."""
    weight = objectives.penalty_weight(objectives.num_observations(network), criterion)
    return objectives.log_likelihood(output, network) - weight * num_parameters(output)

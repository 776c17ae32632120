"""Core data model for dynamic networks, segmentations, partitions and
segment-community outputs, plus the text formats used to exchange them.

A dynamic network is an ordered sequence of snapshots (undirected simple
graphs over string node labels).  A change point set over k snapshots is a
strictly increasing sequence of time indices in [1, k-1]; it induces a
segmentation into contiguous segments, each of which carries one node
partition in a full solution.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np


class FormatError(ValueError):
    """Raised when an input file violates one of the text formats."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Snapshot:
    """One static graph: a node set and a set of undirected simple edges."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()):
        node_set = set(nodes)
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            node_set.add(u)
            node_set.add(v)
            edge_set.add((u, v) if u <= v else (v, u))
        self.nodes: frozenset[str] = frozenset(node_set)
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_set)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Snapshot)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"Snapshot(|V|={len(self.nodes)}, |E|={len(self.edges)})"


class DynamicNetwork:
    """A sequence of k >= 1 snapshots over one label table, held as id arrays.

    ``labels`` is the sorted table of every node label and ``label_index``
    maps a label to its id, so ids order like labels.  Snapshot j's node ids
    are ``node_ids[node_offsets[j]:node_offsets[j + 1]]`` and its edges are
    the same slice of ``edge_u``/``edge_v`` under ``edge_offsets``, with
    u < v; within a snapshot both are in ascending order.  A segment's nodes
    and edges are therefore one contiguous slice, and an empty snapshot
    costs one entry per offset array.  ``network[j]`` builds snapshot j as a
    ``Snapshot`` from its slices.
    """

    __slots__ = (
        "labels", "label_index",
        "node_ids", "node_offsets", "edge_u", "edge_v", "edge_offsets",
    )

    def __init__(self, snapshots: Sequence[Snapshot]):
        index: dict[str, int] = {}
        nodes = [
            (t, index.setdefault(u, len(index))) for t, g in enumerate(snapshots) for u in g.nodes
        ]
        edges = [(t, index[u], index[v]) for t, g in enumerate(snapshots) for u, v in g.edges]
        self._build(len(snapshots), list(index), nodes, edges)

    @classmethod
    def from_records(cls, k: int, labels: Sequence[str], nodes, edges) -> "DynamicNetwork":
        """Network of k snapshots from id records.

        ``labels`` are distinct, in any order, and ids index them.  ``nodes``
        holds (t, id) records and ``edges`` (t, u, v) records, as rows or
        flattened, with 0 <= t < k and u != v.  An edge's endpoints join its
        snapshot; repeated records and edge orientation do not matter.
        """
        network = cls.__new__(cls)
        network._build(k, labels, nodes, edges)
        return network

    def _build(self, k: int, labels: Sequence[str], nodes, edges) -> None:
        if k < 1:
            raise ValueError("a dynamic network needs at least one snapshot")
        order = sorted(range(len(labels)), key=labels.__getitem__)
        rank = np.empty(len(labels), dtype=np.intp)
        rank[order] = np.arange(len(labels))
        self.labels: tuple[str, ...] = tuple(labels[i] for i in order)
        self.label_index: dict[str, int] = dict(zip(self.labels, range(len(order))))
        nt, nid = np.asarray(nodes, dtype=np.intp).reshape(-1, 2).T
        et, eu, ev = np.asarray(edges, dtype=np.intp).reshape(-1, 3).T
        eu, ev = rank[eu], rank[ev]
        self.edge_offsets, self.edge_u, self.edge_v = _sorted_records(
            k, et, np.minimum(eu, ev), np.maximum(eu, ev)
        )
        self.node_offsets, self.node_ids = _sorted_records(
            k, np.concatenate([nt, et, et]), np.concatenate([rank[nid], eu, ev])
        )

    def segment_node_ids(self, start: int, end: int) -> np.ndarray:
        """Node ids of snapshots start..end, snapshot by snapshot."""
        return self.node_ids[self.node_offsets[start]:self.node_offsets[end + 1]]

    def segment_edges(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint ids (u, v), u < v, of every edge of snapshots start..end."""
        lo, hi = self.edge_offsets[start], self.edge_offsets[end + 1]
        return self.edge_u[lo:hi], self.edge_v[lo:hi]

    @property
    def k(self) -> int:
        return len(self.node_offsets) - 1

    def __getitem__(self, j: int) -> Snapshot:
        j = range(self.k)[j]
        labels = self.labels
        u, v = self.segment_edges(j, j)
        return Snapshot(
            [labels[i] for i in self.segment_node_ids(j, j).tolist()],
            [(labels[a], labels[b]) for a, b in zip(u.tolist(), v.tolist())],
        )

    def __iter__(self) -> Iterator[Snapshot]:
        return (self[j] for j in range(self.k))

    def __len__(self) -> int:
        return self.k

    def __eq__(self, other) -> bool:
        return isinstance(other, DynamicNetwork) and self.labels == other.labels and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__[2:]
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.node_offsets.tobytes(), self.edge_offsets.tobytes()))


def _sorted_records(k: int, t: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
    """Offsets per snapshot, then the columns, of records sorted by (t, *columns)
    with repeats dropped; every array is read-only."""
    order = np.lexsort((*columns[::-1], t))
    t, *columns = (c[order] for c in (t, *columns))
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = np.any([c[1:] != c[:-1] for c in (t, *columns)], axis=0)
    out = [np.searchsorted(t[keep], np.arange(k + 1))] + [c[keep] for c in columns]
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class Segmentation:
    """Contiguous, non-overlapping (start, end) ranges covering [0, k-1]."""

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("empty segmentation")
        if self.segments[0][0] != 0:
            raise ValueError("first segment must start at time 0")
        prev_end = -1
        for start, end in self.segments:
            if start != prev_end + 1 or end < start:
                raise ValueError(f"bad segment range ({start}, {end})")
            prev_end = end

    @property
    def k(self) -> int:
        return self.segments[-1][1] + 1

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.segments)


@dataclass(frozen=True)
class ChangePointSet:
    """Strictly increasing time indices in [1, k-1]; time 0 is implicit."""

    points: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        prev = 0
        for t in self.points:
            if not 1 <= t <= self.k - 1:
                raise ValueError(f"change point {t} outside [1, {self.k - 1}]")
            if t <= prev:
                raise ValueError("change points must be strictly increasing")
            prev = t

    @property
    def num_segments(self) -> int:
        return len(self.points) + 1

    def segmentation(self) -> Segmentation:
        starts = (0,) + self.points
        ends = tuple(t - 1 for t in self.points) + (self.k - 1,)
        return Segmentation(tuple(zip(starts, ends)))

    def seg_index(self, j: int) -> int:
        """Index of the segment containing snapshot j."""
        if not 0 <= j <= self.k - 1:
            raise ValueError(f"time index {j} outside [0, {self.k - 1}]")
        return bisect.bisect_right(self.points, j)


class Partition:
    """Assignment of every node in a domain to exactly one cluster."""

    __slots__ = ("assignment", "_clusters")

    def __init__(self, assignment: Mapping[str, int]):
        self.assignment: dict[str, int] = dict(assignment)
        self._clusters: dict[int, frozenset[str]] | None = None

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[str]]) -> "Partition":
        assignment: dict[str, int] = {}
        for cid, members in enumerate(clusters):
            members = list(members)
            if not members:
                raise ValueError("empty cluster")
            for u in members:
                if u in assignment:
                    raise ValueError(f"node {u!r} assigned to two clusters")
                assignment[u] = cid
        return cls(assignment)

    @classmethod
    def singletons(cls, nodes: Iterable[str]) -> "Partition":
        return cls.from_clusters([u] for u in sorted(set(nodes)))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.assignment)

    def clusters(self) -> dict[int, frozenset[str]]:
        if self._clusters is None:
            by_id: dict[int, set[str]] = {}
            for u, cid in self.assignment.items():
                by_id.setdefault(cid, set()).add(u)
            self._clusters = {cid: frozenset(m) for cid, m in by_id.items()}
        return self._clusters

    @property
    def num_clusters(self) -> int:
        return len(self.clusters())

    def groups(self) -> frozenset[frozenset[str]]:
        """The clustering as a set of member sets, ignoring cluster ids."""
        return frozenset(self.clusters().values())

    def same_grouping(self, other: "Partition") -> bool:
        return self.domain == other.domain and self.groups() == other.groups()

    def canonical(self) -> "Partition":
        """Relabel cluster ids 0,1,... ordered by smallest member."""
        ordered = sorted(self.clusters().values(), key=min)
        return Partition({u: cid for cid, members in enumerate(ordered) for u in members})

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash(self.groups())

    def __repr__(self) -> str:
        return f"Partition(|V|={len(self.assignment)}, |p|={self.num_clusters})"


@dataclass(frozen=True)
class ScdOutput:
    """A solution pair: change point set plus one partition per segment."""

    change_points: ChangePointSet
    partitions: tuple[Partition, ...]

    def __post_init__(self):
        if len(self.partitions) != self.change_points.num_segments:
            raise ValueError(
                f"{self.change_points.num_segments} segments but "
                f"{len(self.partitions)} partitions"
            )

    @property
    def k(self) -> int:
        return self.change_points.k

    @property
    def num_segments(self) -> int:
        return self.change_points.num_segments

    def segmentation(self) -> Segmentation:
        return self.change_points.segmentation()

    def partition_at(self, j: int) -> Partition:
        """Segment partition covering snapshot j."""
        return self.partitions[self.change_points.seg_index(j)]

    def validate_for(self, network: DynamicNetwork, exact: bool = True) -> None:
        """Check the per-segment domains against a network; raises on mismatch.

        Each segment partition must cover the nodes of the segment's
        snapshots and, if ``exact``, hold no other node.
        """
        if network.k != self.k:
            raise ValueError(f"output covers k={self.k}, network has k={network.k}")
        labels = network.labels
        for p, (start, end) in zip(self.partitions, self.segmentation()):
            ids = np.unique(network.segment_node_ids(start, end))
            nodes = {labels[i] for i in ids.tolist()}
            missing = nodes - p.domain
            extra = p.domain - nodes if exact else set()
            if missing or extra:
                problem = (
                    f"misses node {min(missing)!r}" if missing
                    else f"holds node {min(extra)!r}, which none of them has"
                )
                raise ValueError(
                    f"segment [{start},{end}] partition domain does not match "
                    f"the union of its snapshot node sets: it {problem}"
                )


# ---------------------------------------------------------------------------
# Snapshot edge-list format
#
# One record per line, whitespace separated:
#   <t> <u> <v>   edge in snapshot t (u != v)
#   <t> <u>       isolated-node declaration
# Lines starting with '#' are comments; blank lines are ignored.  Every time
# index up to the largest costs an offset entry, so indices are capped.
# ---------------------------------------------------------------------------

MAX_TIME_INDEX = 1_000_000


def load_dynamic_network(source: TextIO | str) -> DynamicNetwork:
    text = source if isinstance(source, str) else source.read()
    index: dict[str, int] = {}  # label -> id, in order of first appearance
    nodes: list[int] = []  # t, id of each record, flattened
    edges: list[int] = []  # t, u, v of each record, flattened
    k = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise FormatError(f"expected 2 or 3 fields, got {len(parts)}", line_no)
        try:
            t = int(parts[0])
        except ValueError:
            raise FormatError(f"bad time index {parts[0]!r}", line_no) from None
        if t < 0:
            raise FormatError(f"negative time index {t}", line_no)
        if t > MAX_TIME_INDEX:
            raise FormatError(f"time index {t} above {MAX_TIME_INDEX}", line_no)
        if t >= k:
            k = t + 1
        if len(parts) == 2:
            nodes += (t, index.setdefault(parts[1], len(index)))
            continue
        u, v = parts[1], parts[2]
        if u == v:
            raise FormatError(f"self-loop on node {u!r}", line_no)
        edges += (t, index.setdefault(u, len(index)), index.setdefault(v, len(index)))
    if not k:
        raise FormatError("no snapshot records found")
    return DynamicNetwork.from_records(k, list(index), nodes, edges)


def dump_dynamic_network(network: DynamicNetwork) -> str:
    """Canonical text form; loading it back reproduces the network.

    The format holds no snapshot after the last record, so a network whose
    last snapshot is empty cannot be written and raises ValueError.
    """
    sizes = np.diff(network.node_offsets)
    if not sizes[-1]:
        raise ValueError("the last snapshot is empty; the format cannot express it")
    labels = network.labels
    out: list[str] = []
    for t in np.flatnonzero(sizes).tolist():
        u, v = network.segment_edges(t, t)
        isolated = np.setdiff1d(network.segment_node_ids(t, t), np.concatenate([u, v]))
        out += [f"{t} {labels[i]}" for i in isolated.tolist()]
        out += [f"{t} {labels[a]} {labels[b]}" for a, b in zip(u.tolist(), v.tolist())]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Output serialization
#
#   segment <start> <end>
#   cluster <id>: <u1> <u2> ...
#
# Segments in time order; within a segment, cluster ids run 0,1,... ordered
# by each cluster's lexicographically smallest member, and member lists are
# sorted.  The rendering is canonical, so outputs are diffable.
# ---------------------------------------------------------------------------

def dump_output(output: ScdOutput) -> str:
    out: list[str] = []
    for p, (start, end) in zip(output.partitions, output.segmentation()):
        out.append(f"segment {start} {end}")
        for cid, members in enumerate(sorted(p.clusters().values(), key=min)):
            out.append(f"cluster {cid}: " + " ".join(sorted(members)))
    return "\n".join(out) + "\n"


def load_output(source: TextIO | str) -> ScdOutput:
    text = source if isinstance(source, str) else source.read()
    segments: list[tuple[int, int]] = []
    assignments: list[dict[str, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("segment "):
            parts = line.split()
            if len(parts) != 3:
                raise FormatError("segment line needs start and end", line_no)
            try:
                start, end = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError("bad segment bounds", line_no) from None
            segments.append((start, end))
            assignments.append({})
            cid = 0
        elif line.startswith("cluster "):
            if not segments:
                raise FormatError("cluster line before any segment line", line_no)
            head, colon, rest = line.partition(":")
            if not colon or len(head.split()) != 2:
                raise FormatError("cluster line lacks the ':' after its id", line_no)
            members = rest.split()
            if not members:
                raise FormatError("empty cluster", line_no)
            assignment = assignments[-1]
            for u in members:
                if assignment.setdefault(u, cid) != cid:
                    raise FormatError(f"node {u!r} assigned to two clusters", line_no)
            cid += 1
        else:
            raise FormatError(f"unrecognized line {line!r}", line_no)
    if not segments:
        raise FormatError("no segments found")
    try:
        Segmentation(tuple(segments))  # validates contiguity and coverage
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    k = segments[-1][1] + 1
    points = tuple(start for start, _ in segments[1:])
    partitions = tuple(Partition(a) for a in assignments)
    return ScdOutput(ChangePointSet(points, k), partitions)

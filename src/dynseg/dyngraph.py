"""Core data model for dynamic networks, segmentations, partitions and
segment-community outputs, plus the text formats used to exchange them.

A dynamic network is an ordered sequence of snapshots (undirected simple
graphs over string node labels).  A change point set over k snapshots is a
strictly increasing sequence of time indices in [1, k-1]; it induces a
segmentation into contiguous segments, each of which carries one node
partition in a full solution.
"""

from __future__ import annotations

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


def _canonical_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


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
            edge_set.add(_canonical_edge(u, v))
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


class IdArrays:
    """A dynamic network's snapshots with node labels interned as integer ids.

    ``labels`` is the sorted label table and ``label_index`` maps a label to
    its id, so ids order like labels.  Snapshot j's node ids are
    ``node_ids[node_offsets[j]:node_offsets[j + 1]]`` and its edges are the
    same slice of ``edge_u``/``edge_v`` under ``edge_offsets``, with u < v;
    within a snapshot both are in ascending order.  A segment's nodes and
    edges are therefore one contiguous slice, and an empty snapshot costs
    one entry per offset array.
    """

    __slots__ = (
        "labels", "label_index",
        "node_ids", "node_offsets", "edge_u", "edge_v", "edge_offsets",
    )

    def __init__(self, snapshots: Sequence[Snapshot]):
        universe: set[str] = set()
        for g in snapshots:
            universe.update(g.nodes)
        self.labels: tuple[str, ...] = tuple(sorted(universe))
        index = {u: i for i, u in enumerate(self.labels)}
        self.label_index: dict[str, int] = index
        node_ids: list[int] = []
        edge_ends: list[int] = []
        for g in snapshots:
            if g.nodes:
                node_ids.extend(sorted(index[u] for u in g.nodes))
                for u, v in sorted(g.edges):
                    edge_ends += (index[u], index[v])
        self.node_ids = _frozen(node_ids)
        self.edge_u = _frozen(edge_ends[0::2])
        self.edge_v = _frozen(edge_ends[1::2])
        k = len(snapshots)
        self.node_offsets = _offsets((len(g.nodes) for g in snapshots), k)
        self.edge_offsets = _offsets((len(g.edges) for g in snapshots), k)

    def segment_node_ids(self, start: int, end: int) -> np.ndarray:
        """Node ids of snapshots start..end, snapshot by snapshot."""
        return self.node_ids[self.node_offsets[start]:self.node_offsets[end + 1]]

    def segment_edges(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint ids (u, v), u < v, of every edge of snapshots start..end."""
        lo, hi = self.edge_offsets[start], self.edge_offsets[end + 1]
        return self.edge_u[lo:hi], self.edge_v[lo:hi]


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


def _offsets(counts: Iterator[int], k: int) -> np.ndarray:
    """Prefix sums 0, c0, c0+c1, ... of k per-snapshot counts."""
    out = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.fromiter(counts, dtype=np.intp, count=k), out=out[1:])
    out.flags.writeable = False
    return out


class DynamicNetwork:
    """Ordered sequence of snapshots sharing one label universe."""

    __slots__ = ("snapshots", "_arrays")

    def __init__(self, snapshots: Sequence[Snapshot]):
        if len(snapshots) < 1:
            raise ValueError("a dynamic network needs at least one snapshot")
        self.snapshots: tuple[Snapshot, ...] = tuple(snapshots)
        self._arrays: IdArrays | None = None

    @property
    def arrays(self) -> IdArrays:
        """The integer-indexed snapshots, built on first use."""
        if self._arrays is None:
            self._arrays = IdArrays(self.snapshots)
        return self._arrays

    @property
    def k(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, j: int) -> Snapshot:
        return self.snapshots[j]

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self.snapshots)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __eq__(self, other) -> bool:
        return isinstance(other, DynamicNetwork) and self.snapshots == other.snapshots

    def __hash__(self) -> int:
        return hash(self.snapshots)


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
        i = 0
        for t in self.points:
            if j < t:
                break
            i += 1
        return i


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

    def restrict(self, nodes: Iterable[str]) -> "Partition":
        """Partition of ``domain intersect nodes``; empty clusters drop out."""
        keep = self.domain & frozenset(nodes)
        return Partition({u: self.assignment[u] for u in keep})

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
        labels = network.arrays.labels
        for p, (start, end) in zip(self.partitions, self.segmentation()):
            ids = np.unique(network.arrays.segment_node_ids(start, end))
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
# index up to the largest costs a snapshot slot, so indices are capped.
# ---------------------------------------------------------------------------

MAX_TIME_INDEX = 1_000_000


def load_dynamic_network(source: TextIO | str) -> DynamicNetwork:
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()

    nodes_by_t: dict[int, set[str]] = {}
    edges_by_t: dict[int, set[tuple[str, str]]] = {}
    max_t = -1
    for line_no, raw in enumerate(lines, start=1):
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
        max_t = max(max_t, t)
        nodes_by_t.setdefault(t, set()).update(parts[1:])
        if len(parts) == 3:
            u, v = parts[1], parts[2]
            if u == v:
                raise FormatError(f"self-loop on node {u!r}", line_no)
            edges_by_t.setdefault(t, set()).add(_canonical_edge(u, v))
    if max_t < 0:
        raise FormatError("no snapshot records found")
    # every skipped time index shares one empty snapshot
    empty = Snapshot()
    snapshots = [
        Snapshot(nodes_by_t[t], edges_by_t.get(t, ())) if t in nodes_by_t else empty
        for t in range(max_t + 1)
    ]
    return DynamicNetwork(snapshots)


def dump_dynamic_network(network: DynamicNetwork) -> str:
    """Canonical text form; loading it back reproduces the network.

    The format holds no snapshot after the last record, so a network whose
    last snapshot is empty cannot be written and raises ValueError.
    """
    if not network.snapshots[-1].nodes:
        raise ValueError("the last snapshot is empty; the format cannot express it")
    out: list[str] = []
    for t, g in enumerate(network.snapshots):
        covered = {u for e in g.edges for u in e}
        for u in sorted(g.nodes - covered):
            out.append(f"{t} {u}")
        for u, v in sorted(g.edges):
            out.append(f"{t} {u} {v}")
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
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()

    segments: list[tuple[int, int]] = []
    cluster_sets: list[list[set[str]]] = []
    for line_no, raw in enumerate(lines, start=1):
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
            cluster_sets.append([])
        elif line.startswith("cluster "):
            if not segments:
                raise FormatError("cluster line before any segment line", line_no)
            _, _, rest = line.partition(":")
            members = set(rest.split())
            if not members:
                raise FormatError("empty cluster", line_no)
            cluster_sets[-1].append(members)
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
    partitions = tuple(Partition.from_clusters(cs) for cs in cluster_sets)
    return ScdOutput(ChangePointSet(points, k), partitions)

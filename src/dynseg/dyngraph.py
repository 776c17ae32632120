"""Core data model for dynamic networks, segmentations, partitions and
segment-community outputs, plus the text formats used to exchange them.

A dynamic network is an ordered sequence of snapshots (undirected simple
graphs over string node labels), held as id arrays.  A segmentation of k
snapshots is a tuple of contiguous (start, end) ranges covering 0..k-1 in
time order; the start of every segment after the first is a change point.
A full solution carries one node partition per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np


class FormatError(ValueError):
    """Raised when an input file violates one of the text formats."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class IdSnapshot(NamedTuple):
    """One snapshot as ids: ascending node ids, and (m, 2) edge rows u < v."""

    nodes: np.ndarray
    edges: np.ndarray


class DynamicNetwork:
    """A sequence of k >= 1 snapshots over one label table, held as id arrays.

    ``labels`` is the sorted table of every node label and ``label_index``
    maps a label to its id, so ids order like labels.  Snapshot j's node ids
    are ``node_ids[node_offsets[j]:node_offsets[j + 1]]``, ascending.

    Edges are held once, as pairs: the distinct edges of all snapshots,
    numbered by ascending (u, v), u < v, join ``pair_u[p]`` and
    ``pair_v[p]``, and snapshot j's edges are the pairs
    ``edge_pair[edge_offsets[j]:edge_offsets[j + 1]]``, ascending.  A
    segment's nodes and edges are therefore one contiguous slice, and an
    empty snapshot costs one entry per offset array.  Every array is
    read-only.
    """

    __slots__ = (
        "labels", "label_index", "node_ids", "node_offsets",
        "edge_offsets", "edge_pair", "pair_u", "pair_v",
    )

    def __init__(self, k: int, labels: Sequence[str], nodes, edges):
        """Network of k snapshots from id records: ``nodes`` holds (t, id)
        and ``edges`` (t, u, v) records, as rows or flattened, with
        0 <= t < k and u != v, and ids index the distinct ``labels``, in any
        order; anything else raises ValueError.  An edge's endpoints join its
        snapshot; repeated records and edge orientation do not matter."""
        if k < 1:
            raise ValueError("a dynamic network needs at least one snapshot")
        order = sorted(range(len(labels)), key=labels.__getitem__)
        self.labels: tuple[str, ...] = tuple(labels[i] for i in order)
        self.label_index: dict[str, int] = dict(zip(self.labels, range(len(order))))
        if len(self.label_index) < len(order):
            twice = next(a for a, b in zip(self.labels, self.labels[1:]) if a == b)
            raise ValueError(f"label {twice!r} appears twice")
        nodes = np.asarray(nodes, dtype=np.intp).reshape(-1, 2).T.copy()
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 3).T.copy()
        _check_records(k, labels, nodes, edges)
        n = len(labels)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        (nt, nid), (et, eu, ev) = nodes, edges
        eu, ev = rank[eu], rank[ev]
        # number the distinct pairs by their key u * n + v, u < v, so that
        # each edge record sorts as (t, pair id)
        keys = np.minimum(eu, ev) * n + np.maximum(eu, ev)
        pairs = np.sort(keys)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        self.edge_offsets, self.edge_pair = _sorted_records(
            k, et, np.searchsorted(pairs, keys), len(pairs)
        )
        self.node_offsets, self.node_ids = _sorted_records(
            k, np.concatenate([nt, et, et]), np.concatenate([rank[nid], eu, ev]), n
        )
        self.pair_u, self.pair_v = np.divmod(pairs, n)
        self.pair_u.flags.writeable = self.pair_v.flags.writeable = False

    def segment_node_ids(self, start: int, end: int) -> np.ndarray:
        """Node ids of snapshots start..end, snapshot by snapshot."""
        return self.node_ids[self.node_offsets[start]:self.node_offsets[end + 1]]

    def segment_edges(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint ids (u, v), u < v, of every edge of snapshots start..end, as new arrays."""
        p = self.edge_pair[self.edge_offsets[start]:self.edge_offsets[end + 1]]
        return self.pair_u[p], self.pair_v[p]

    @property
    def k(self) -> int:
        return len(self.node_offsets) - 1

    # The library does not call this; bench/tracing.py reads its edge count.
    def __getitem__(self, j: int) -> IdSnapshot:
        j = range(self.k)[j]
        return IdSnapshot(
            self.segment_node_ids(j, j), np.column_stack(self.segment_edges(j, j))
        )

    # Not iterable: __getitem__ alone lets iter(), list() and `in` walk the snapshots.
    __iter__ = None

    def __eq__(self, other) -> bool:
        return isinstance(other, DynamicNetwork) and self.labels == other.labels and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__[2:]
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.node_offsets.tobytes(), self.edge_offsets.tobytes()))


def _check_records(k: int, labels: Sequence[str], nodes: np.ndarray, edges: np.ndarray) -> None:
    """Raise ValueError on the first (t, id) node record or (t, u, v) edge
    record, held as columns, with t outside 0..k-1, an id that names no
    label, or u == v."""
    for what, records in (("node", nodes), ("edge", edges)):
        for problem, values, bound in (
            (f"time index outside 0..{k - 1}", records[:1], k),
            (f"node id outside the {len(labels)} labels", records[1:], len(labels)),
        ):
            if values.size and (values.min() < 0 or values.max() >= bound):
                first = ((values < 0) | (values >= bound)).any(axis=0).argmax()
                raise ValueError(f"{what} record {tuple(records[:, first].tolist())}: {problem}")
    loop = edges[1] == edges[2]
    if loop.any():
        t, u, _ = edges[:, loop.argmax()].tolist()
        raise ValueError(f"edge record {(t, u, u)}: self-loop on node {labels[u]!r}")


def _sorted_records(
    k: int, t: np.ndarray, x: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Offsets per snapshot, then the values, of (t, x) records with
    0 <= t < k and 0 <= x < width, sorted by (t, x) with repeats dropped;
    both arrays are read-only.  Each record sorts as one int64 key
    ``t * width + x``, below ``k * width``."""
    key = np.sort(t * width + x)
    key = key[np.diff(key, prepend=-1) != 0]
    offsets, x = np.searchsorted(key, np.arange(k + 1) * width), key % width
    offsets.flags.writeable = x.flags.writeable = False
    return offsets, x


def dense_codes(ids: Iterable[int]) -> np.ndarray:
    """Integer ids renumbered 0, 1, ... in order of first appearance, as a
    read-only array."""
    rank: dict[int, int] = {}
    codes = np.array([rank.setdefault(i, len(rank)) for i in np.asarray(ids).tolist()], np.int64)
    codes.flags.writeable = False
    return codes


class Partition:
    """Assignment of every node in a domain to exactly one cluster.

    ``labels`` is the domain as a sorted tuple and ``codes[i]`` is the
    cluster of ``labels[i]``, in a read-only int array.  Codes are canonical
    by construction: clusters are numbered 0, 1, ... in order of first
    appearance over the sorted labels, that is by smallest member, so two
    partitions are equal exactly when they group the same nodes alike.
    """

    __slots__ = ("labels", "codes")

    def __init__(self, assignment: Mapping[str, int]):
        self.labels = tuple(sorted(assignment))
        self.codes = dense_codes([assignment[u] for u in self.labels])

    @classmethod
    def from_codes(cls, labels: tuple[str, ...], ids: Iterable[int]) -> "Partition":
        """Partition of sorted distinct ``labels``; ``ids[i]`` is an int id of
        the cluster of ``labels[i]``.  The tuple is kept, not copied."""
        p = cls.__new__(cls)
        p.labels, p.codes = labels, dense_codes(ids)
        return p

    def __getstate__(self):
        return self.labels, self.codes.tobytes()

    def __setstate__(self, state) -> None:
        self.labels, raw = state
        self.codes = np.frombuffer(raw, dtype=np.int64)  # read-only, already canonical

    def codes_by_id(self, index: Mapping[str, int]) -> np.ndarray:
        """The code of every id of ``index``, a map from labels onto ids
        0, 1, ...; -1 where this partition lacks the label."""
        ids = np.array([index.get(u, -1) for u in self.labels], dtype=np.intp)
        out = np.full(len(index), -1, dtype=np.int64)
        out[ids[ids >= 0]] = self.codes[ids >= 0]
        return out

    @property
    def num_clusters(self) -> int:
        return int(self.codes.max()) + 1 if len(self.codes) else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.labels == other.labels
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Partition(|V|={len(self.labels)}, |p|={self.num_clusters})"


@dataclass(frozen=True)
class ScdOutput:
    """A solution: contiguous (start, end) segments from snapshot 0, in time
    order, and one partition per segment."""

    segments: tuple[tuple[int, int], ...]
    partitions: tuple[Partition, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("an output needs at least one segment")
        if self.segments[0][0] != 0:
            raise ValueError(f"first segment starts at {self.segments[0][0]}, not at time 0")
        next_start = 0
        for start, end in self.segments:
            if start != next_start:
                raise ValueError(
                    f"segment ({start}, {end}) does not start right after snapshot {next_start - 1}"
                )
            if end < start:
                raise ValueError(f"segment ({start}, {end}) ends before it starts")
            next_start = end + 1
        if len(self.partitions) != len(self.segments):
            raise ValueError(
                f"{len(self.segments)} segments but {len(self.partitions)} partitions"
            )

    @property
    def k(self) -> int:
        return self.segments[-1][1] + 1

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def change_points(self) -> tuple[int, ...]:
        """The start of every segment after the first."""
        return tuple(start for start, _ in self.segments[1:])

    def validate_for(self, network: DynamicNetwork, exact: bool = True) -> None:
        """Check the per-segment domains against a network; raises on mismatch.

        Each segment partition must cover the nodes of the segment's
        snapshots and, if ``exact``, hold no other node.
        """
        if network.k != self.k:
            raise ValueError(f"output covers k={self.k}, network has k={network.k}")
        labels = network.labels
        for p, (start, end) in zip(self.partitions, self.segments):
            ids = np.unique(network.segment_node_ids(start, end))
            nodes = tuple(labels[i] for i in ids.tolist())
            if nodes == p.labels:
                continue
            missing = set(nodes).difference(p.labels)
            extra = set(p.labels).difference(nodes) if exact else set()
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
    times: dict[str, int] = {}  # each time field read so far -> its index
    k = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) not in (2, 3):
            raise FormatError(f"expected 2 or 3 fields, got {len(parts)}", line_no)
        t = times.get(parts[0])
        if t is None:
            try:
                t = int(parts[0])
            except ValueError:
                raise FormatError(f"bad time index {parts[0]!r}", line_no) from None
            if t < 0:
                raise FormatError(f"negative time index {t}", line_no)
            if t > MAX_TIME_INDEX:
                raise FormatError(f"time index {t} above {MAX_TIME_INDEX}", line_no)
            times[parts[0]] = t
            k = max(k, t + 1)
        if len(parts) == 2:
            nodes += (t, index.setdefault(parts[1], len(index)))
            continue
        u, v = parts[1], parts[2]
        if u == v:
            raise FormatError(f"self-loop on node {u!r}", line_no)
        edges += (t, index.setdefault(u, len(index)), index.setdefault(v, len(index)))
    if not k:
        raise FormatError("no snapshot records found")
    return DynamicNetwork(k, list(index), nodes, edges)


def _check_labels(labels: Iterable[str]) -> None:
    """Raise ValueError on the first label that is empty or holds
    whitespace: both text formats split their lines at whitespace."""
    bad = next((u for u in labels if u.split() != [u]), None)
    if bad is not None:
        raise ValueError(f"label {bad!r} is empty or holds whitespace; the format cannot hold it")


def dump_dynamic_network(network: DynamicNetwork) -> str:
    """Canonical text form; loading it back reproduces the network.

    The format holds no snapshot after the last record and splits lines at
    whitespace, so a network whose last snapshot is empty, or with a label
    that is empty or holds whitespace, cannot be written and raises
    ValueError.
    """
    sizes = np.diff(network.node_offsets)
    if not sizes[-1]:
        raise ValueError("the last snapshot is empty; the format cannot express it")
    labels, n, k = network.labels, len(network.labels), network.k
    _check_labels(labels)
    # a node record is isolated unless an edge endpoint's key t * n + id,
    # searched in the node records' ascending keys, lands on it
    keys = np.repeat(np.arange(k) * n, sizes) + network.node_ids
    et = np.repeat(np.arange(k) * n, np.diff(network.edge_offsets))
    u, v = network.segment_edges(0, k - 1)
    isolated = np.ones(len(keys), dtype=bool)
    isolated[np.searchsorted(keys, np.concatenate([et + u, et + v]))] = False
    isolated = np.flatnonzero(isolated)
    # every line is "t " and then words: snapshot t's isolated nodes, then its edges
    node_words = [labels[i] for i in network.node_ids[isolated].tolist()]
    pair_words = [f"{labels[a]} {labels[b]}"
                  for a, b in zip(network.pair_u.tolist(), network.pair_v.tolist())]
    edge_words = list(map(pair_words.__getitem__, network.edge_pair.tolist()))
    at = np.searchsorted(isolated, network.node_offsets).tolist()
    edge_at = network.edge_offsets.tolist()
    out: list[str] = []
    for t in np.flatnonzero(sizes).tolist():
        words = node_words[at[t]:at[t + 1]] + edge_words[edge_at[t]:edge_at[t + 1]]
        out.append(f"{t} " + f"\n{t} ".join(words))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Output serialization
#
#   segment <start> <end>
#   cluster <id>: <u1> <u2> ...
#
# Segments in time order; within a segment, cluster ids run 0,1,... ordered
# by each cluster's lexicographically smallest member, and member lists are
# sorted.  The rendering is canonical, so outputs are diffable.  The loader
# takes segments that cover 0..k-1 in order, ending at most MAX_TIME_INDEX.
# ---------------------------------------------------------------------------

def dump_output(output: ScdOutput) -> str:
    """Canonical text form; a label that is empty or holds whitespace
    cannot be written and raises ValueError."""
    out: list[str] = []
    for p, (start, end) in zip(output.partitions, output.segments):
        _check_labels(p.labels)
        out.append(f"segment {start} {end}")
        members: list[list[str]] = [[] for _ in range(p.num_clusters)]
        for u, c in zip(p.labels, p.codes.tolist()):
            members[c].append(u)
        out += [f"cluster {c}: " + " ".join(m) for c, m in enumerate(members)]
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
            if not segments and start != 0:
                raise FormatError("first segment must start at time 0", line_no)
            if end < start or segments and start != segments[-1][1] + 1:
                raise FormatError(f"bad segment range ({start}, {end})", line_no)
            if end > MAX_TIME_INDEX:
                raise FormatError(f"segment end {end} above {MAX_TIME_INDEX}", line_no)
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
    return ScdOutput(tuple(segments), tuple(Partition(a) for a in assignments))

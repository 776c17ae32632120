import itertools
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynseg.consensus import sum_graph
from dynseg.dyngraph import (
    MAX_TIME_INDEX,
    DynamicNetwork,
    FormatError,
    Partition,
    ScdOutput,
    _sorted_records,
    dump_dynamic_network,
    dump_output,
    load_dynamic_network,
    load_output,
)
from dynseg.evaluation import _overlaps
from label_graphs import (
    Snapshot, assignment, from_clusters, is_canonical, network_of, output_of, partition_at,
    segment_at, snapshot_at,
)


class TestLoadDynamicNetwork:
    def test_basic_edges(self):
        net = load_dynamic_network("0 a b\n0 b c\n1 a c")
        assert net.k == 2
        assert snapshot_at(net, 0).edges == {("a", "b"), ("b", "c")}
        assert snapshot_at(net, 1).edges == {("a", "c")}

    def test_duplicate_edges_collapse(self):
        net = load_dynamic_network("0 a b\n0 a b")
        assert len(snapshot_at(net, 0).edges) == 1
        net = load_dynamic_network("0 a b\n0 b a")
        assert len(snapshot_at(net, 0).edges) == 1

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(FormatError, match="line 1"):
            load_dynamic_network("0 a a")

    def test_negative_time_rejected(self):
        with pytest.raises(FormatError, match="negative"):
            load_dynamic_network("-1 a b")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            load_dynamic_network("0 a b\n0 a b c d")

    def test_bad_time_token(self):
        with pytest.raises(FormatError, match="time index"):
            load_dynamic_network("x a b")

    def test_time_index_above_limit_rejected(self):
        # rejected while parsing, before any snapshot slot is allocated
        with pytest.raises(FormatError, match=f"line 2: time index {MAX_TIME_INDEX + 1} above"):
            load_dynamic_network(f"0 a b\n{MAX_TIME_INDEX + 1} a c\n")
        with pytest.raises(FormatError, match="line 1"):
            load_dynamic_network("1000000000 a b\n")

    def test_comments_and_blanks_ignored(self):
        net = load_dynamic_network("# header\n\n0 a b\n")
        assert net.k == 1

    def test_isolated_node_line(self):
        net = load_dynamic_network("0 a b\n0 c")
        assert snapshot_at(net, 0).nodes == {"a", "b", "c"}
        assert len(snapshot_at(net, 0).edges) == 1

    def test_missing_intermediate_time_gives_empty_snapshot(self):
        net = load_dynamic_network("0 a b\n2 a b")
        assert net.k == 3
        assert len(snapshot_at(net, 1).nodes) == 0

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            load_dynamic_network("# only a comment\n")

    def test_skipped_time_indices_cost_one_offset_entry(self):
        tracemalloc.start()
        try:
            net = load_dynamic_network("0 a b\n200000 a c\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.k == 200001
        assert peak < 20 * 2**20
        assert snapshot_at(net, 1) == snapshot_at(net, 199999) == Snapshot()
        assert net.node_offsets[1] == net.node_offsets[200000] == 2
        assert net.edge_offsets[199999] == net.edge_offsets[200000] == 1
        assert len(net.node_ids) == 4 and len(net.segment_edges(0, net.k - 1)[0]) == 2

    def test_round_trip(self):
        text = "0 a b\n0 zz\n1 a c\n3 b c\n"
        net = load_dynamic_network(text)
        again = load_dynamic_network(dump_dynamic_network(net))
        assert again == net
        # and the dump itself is stable
        assert dump_dynamic_network(again) == dump_dynamic_network(net)

    @settings(max_examples=200)
    @given(st.data())
    def test_round_trip_property(self, data):
        # isolated nodes, and empty snapshots that the dump skips, anywhere
        # but last
        labels = ["a", "b", "c", "d", "e"]
        k = data.draw(st.integers(1, 6))
        snapshots = []
        for t in range(k):
            nodes = data.draw(st.lists(
                st.sampled_from(labels), unique=True, min_size=1 if t == k - 1 else 0
            ))
            pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            snapshots.append(Snapshot(nodes, edges))
        net = network_of(snapshots)
        text = dump_dynamic_network(net)
        again = load_dynamic_network(text)
        assert again == net
        assert dump_dynamic_network(again) == text

    def test_trailing_empty_snapshot_cannot_be_dumped(self):
        net = network_of([Snapshot(["a", "b"], [("a", "b")]), Snapshot()])
        with pytest.raises(ValueError):
            dump_dynamic_network(net)
        with pytest.raises(ValueError):
            dump_dynamic_network(network_of([Snapshot(), Snapshot()]))

    @pytest.mark.parametrize("labels, bad", [
        (["x y", "z"], "x y"), (["a", ""], ""), (["a", "b\tc"], "b\tc"), (["a\u2028", "b"], "a\u2028"),
    ], ids=["space", "empty", "tab", "line-separator"])
    def test_labels_the_format_cannot_hold_are_not_dumped(self, labels, bad):
        # "0 x y" would load back as an edge between x and y
        net = DynamicNetwork(1, labels, [(0, 0), (0, 1)], [])
        with pytest.raises(ValueError, match=re.escape(f"label {bad!r} is empty or holds whitespace")):
            dump_dynamic_network(net)


class TestIdArrays:
    def test_layout(self):
        net = load_dynamic_network("0 b a\n0 c\n1 c b\n3 a c\n")
        assert net.labels == ("a", "b", "c")
        assert net.label_index == {"a": 0, "b": 1, "c": 2}
        assert net.node_offsets.tolist() == [0, 3, 5, 5, 7]
        assert net.node_ids.tolist() == [0, 1, 2, 1, 2, 0, 2]
        assert net.edge_offsets.tolist() == [0, 1, 2, 2, 3]
        assert list(zip(*(a.tolist() for a in net.segment_edges(0, 3)))) == [
            (0, 1), (1, 2), (0, 2),
        ]
        assert net.segment_node_ids(1, 2).tolist() == [1, 2]
        assert [a.tolist() for a in net.segment_edges(1, 3)] == [[1, 0], [2, 2]]
        # each edge record is held once, as a pair id; no endpoint column
        assert DynamicNetwork.__slots__ == (
            "labels", "label_index", "node_ids", "node_offsets",
            "edge_offsets", "edge_pair", "pair_u", "pair_v",
        )
        for name in DynamicNetwork.__slots__[2:]:
            with pytest.raises(ValueError):
                getattr(net, name)[0] = 2
        # segment_edges gives fresh arrays, so writing to them leaves the network
        u, v = net.segment_edges(0, 3)
        u[:], v[:] = 7, 7
        assert [a.tolist() for a in net.segment_edges(0, 3)] == [[0, 1, 0], [1, 2, 2]]

    def test_views_and_equality(self):
        net = load_dynamic_network("0 b a\n0 c\n1 c b\n3 a c\n")
        nodes, edges = net[0]
        assert (nodes.tolist(), edges.tolist()) == ([0, 1, 2], [[0, 1]])
        assert (net[-1].nodes.tolist(), net[-1].edges.tolist()) == ([0, 2], [[0, 2]])
        assert net[2].nodes.shape == (0,) and net[2].edges.shape == (0, 2)
        assert [len(net[j].edges) for j in range(net.k)] == [1, 1, 0, 1]
        with pytest.raises(IndexError):
            net[4]
        assert snapshot_at(net, 0) == Snapshot(["c"], [("a", "b")])
        assert snapshot_at(net, -1) == Snapshot([], [("a", "c")])
        again = network_of([snapshot_at(net, j) for j in range(net.k)])
        assert again == net and hash(again) == hash(net)
        assert net != load_dynamic_network("0 b a\n0 c\n1 c b\n3 a b\n")

    def test_not_iterable(self):
        # __getitem__ stays, but the old sequence protocol must not walk it
        net = load_dynamic_network("0 b a\n0 c\n1 c b\n3 a c\n")
        for walk in (iter, list, lambda n: 0 in n):
            with pytest.raises(TypeError):
                walk(net)
        first = net[0]
        assert first.nodes.tolist() == [0, 1, 2]
        assert first.edges.tolist() == [[0, 1]]

    def test_pickles(self):
        # every fill worker receives its network pickled with its chunk and
        # builds its sum graphs from the copy
        net = load_dynamic_network("0 b a\n0 c\n1 c b\n3 a c\n3 b a\n")
        copy = pickle.loads(pickle.dumps(net))
        assert copy == net and copy.label_index == net.label_index
        assert [snapshot_at(copy, j) for j in range(copy.k)] == [
            snapshot_at(net, j) for j in range(net.k)
        ]
        for start, end in itertools.combinations_with_replacement(range(net.k), 2):
            for x, y in zip(copy.segment_edges(start, end), net.segment_edges(start, end)):
                assert x.dtype == y.dtype and x.tolist() == y.tolist()
            graph, original = sum_graph(copy, start, end), sum_graph(net, start, end)
            assert graph.labels == original.labels
            for x, y in zip(graph[1:], original[1:]):
                assert x.dtype == y.dtype and x.tolist() == y.tolist()

    def test_pair_index(self):
        # snapshot 1 is empty, and pairs a-b and b-c come back later
        net = load_dynamic_network("0 a b\n0 b c\n2 b a\n2 a c\n3 c b\n")
        assert (net.pair_u.tolist(), net.pair_v.tolist()) == ([0, 0, 1], [1, 2, 2])
        assert net.edge_pair.tolist() == [0, 2, 0, 1, 2]

    def test_snapshots_and_loader_build_the_same_arrays(self):
        # labels sort as strings, so ids follow "10" < "9"; edges given
        # either way round and repeated collapse
        snapshots = [Snapshot(["9"], [("10", "2"), ("2", "10")]), Snapshot(["x"])]
        net = network_of(snapshots)
        assert net.labels == ("10", "2", "9", "x")
        assert net.node_ids.tolist() == [0, 1, 2, 3]
        assert [a.tolist() for a in net.segment_edges(0, 1)] == [[0], [1]]
        assert load_dynamic_network("0 2 10\n0 10 2\n0 9\n1 x\n") == net
        with pytest.raises(ValueError, match="at least one snapshot"):
            DynamicNetwork(0, [], [], [])


class TestRecords:
    def test_record_sort_matches_lexsort_where_pair_keys_would_overflow(self):
        # one key t * width + x per record stays below 2**60 here, while a
        # key t * n * n with n = width would overflow int64
        k, width = MAX_TIME_INDEX + 1, 2**40
        assert k * width < 2**63 < MAX_TIME_INDEX * width * width
        rng = np.random.default_rng(3)
        t = np.concatenate([rng.integers(0, k, 400), [0, 0, MAX_TIME_INDEX, MAX_TIME_INDEX]])
        x = np.concatenate([rng.integers(0, width, 400), [width - 1, 0, width - 1, 0]])
        t, x = np.concatenate([t, t[::3]]), np.concatenate([x, x[::3]])  # repeats
        order = rng.permutation(len(t))
        offsets, values = _sorted_records(k, t[order], x[order], width)

        order = np.lexsort((x, t))
        t, x = t[order], x[order]
        keep = np.ones(len(t), dtype=bool)
        keep[1:] = (t[1:] != t[:-1]) | (x[1:] != x[:-1])
        assert values.tolist() == x[keep].tolist() and len(values) == 404
        assert np.array_equal(offsets, np.searchsorted(t[keep], np.arange(k + 1)))
        assert not offsets.flags.writeable and not values.flags.writeable

    def test_edge_endpoints_join_their_snapshot(self):
        net = DynamicNetwork(2, ["x", "b", "a"], [(0, 0)], [(1, 1, 2)])
        assert snapshot_at(net, 0) == Snapshot(["x"])
        assert snapshot_at(net, 1) == Snapshot([], [("a", "b")])

    @pytest.mark.parametrize("k, labels, nodes, edges, message", [
        (1, ["a", "b"], [], [(0, 0, 0)], r"edge record \(0, 0, 0\): self-loop on node 'a'"),
        (1, ["a", "b"], [], [(3, 0, 1)], r"edge record \(3, 0, 1\): time index outside 0\.\.0"),
        (2, ["a", "b"], [], [(-1, 0, 1)], r"edge record \(-1, 0, 1\): time index outside"),
        (2, ["a", "b"], [(2, 0)], [], r"node record \(2, 0\): time index outside 0\.\.1"),
        (1, ["a", "b"], [(0, -1)], [], r"node record \(0, -1\): node id outside the 2 labels"),
        (1, ["a", "b"], [], [(0, 0, 5)], r"edge record \(0, 0, 5\): node id outside the 2"),
        (1, ["a", "b"], [], [(0, -1, 0)], r"edge record \(0, -1, 0\): node id outside the 2"),
        (1, ["a", "a", "b"], [(0, 2)], [], r"label 'a' appears twice"),
    ], ids=["self-loop", "time-above-k", "negative-time", "node-time-above-k",
            "negative-node-id", "edge-id-above-labels", "negative-edge-id", "repeated-label"])
    def test_bad_records_rejected(self, k, labels, nodes, edges, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            DynamicNetwork(k, labels, nodes, edges)

    @settings(max_examples=200)
    @given(st.data())
    def test_any_record_form_builds_the_canonical_network(self, data):
        # records shuffled, repeated, in either orientation, as rows or
        # flattened, with isolated nodes and empty snapshots; every label
        # has a record, so the text format can hold the network
        k = data.draw(st.integers(1, 5))
        labels = data.draw(st.lists(
            st.text("abxyz", min_size=1, max_size=2), min_size=1, max_size=6, unique=True
        ))
        n = len(labels)
        time = st.integers(0, k - 1)
        nodes = [(data.draw(time), i) for i in range(n)]
        nodes += data.draw(st.lists(st.tuples(time, st.integers(0, n - 1)), max_size=8))
        edges = []
        if n > 1:
            pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            edges = [(t, *uv) for t, uv in data.draw(st.lists(st.tuples(time, pair), max_size=12))]
        records = [(3, r) for r in edges] + [(2, r) for r in nodes]
        records += data.draw(st.lists(st.sampled_from(records), max_size=6))
        records = data.draw(st.permutations(records))
        node_rows = [r for width, r in records if width == 2]
        edge_rows = [r for width, r in records if width == 3]
        if data.draw(st.booleans()):
            node_rows, edge_rows = np.ravel(node_rows), np.ravel(edge_rows)
        net = DynamicNetwork(k, labels, node_rows, edge_rows)

        rank = {i: sorted(labels).index(u) for i, u in enumerate(labels)}
        canon_edges = sorted({(t, *sorted((rank[u], rank[v]))) for t, u, v in edges})
        canon_nodes = sorted(
            {(t, rank[i]) for t, i in nodes} | {(t, u) for t, *uv in canon_edges for u in uv}
        )
        assert net == DynamicNetwork(k, sorted(labels), canon_nodes, canon_edges)
        assert net.labels == tuple(sorted(labels))
        assert net.node_ids.tolist() == [i for _, i in canon_nodes]
        assert net.node_offsets.tolist() == [
            sum(1 for t, _ in canon_nodes if t < j) for j in range(k + 1)
        ]
        assert [(t, u, v) for t in range(k) for u, v in zip(*net.segment_edges(t, t))] == [
            tuple(e) for e in canon_edges
        ]
        # the pair index: distinct (u, v) strictly ascending, one id per record
        pairs = list(zip(net.pair_u.tolist(), net.pair_v.tolist()))
        assert pairs == sorted({(u, v) for _, u, v in canon_edges})
        assert [pairs[p] for p in net.edge_pair.tolist()] == [(u, v) for _, u, v in canon_edges]
        assert net.edge_offsets.tolist() == [
            sum(1 for t, *_ in canon_edges if t < j) for j in range(k + 1)
        ]
        u, v = net.segment_edges(0, k - 1)
        assert list(zip(u.tolist(), v.tolist())) == [(u, v) for _, u, v in canon_edges]
        if net.node_offsets[-1] > net.node_offsets[-2]:
            assert load_dynamic_network(dump_dynamic_network(net)) == net


class TestSegmentation:
    def test_from_change_points(self):
        out = output_of((4, 7), 10, [Partition({})] * 3)
        assert out.segments == ((0, 3), (4, 6), (7, 9))
        assert (out.change_points, out.k, out.num_segments) == ((4, 7), 10, 3)

    def test_no_change_points(self):
        out = ScdOutput(((0, 4),), (Partition({}),))
        assert (out.change_points, out.k, out.num_segments) == ((), 5, 1)

    def test_maximal(self):
        out = output_of((1, 2, 3), 4, [Partition({})] * 4)
        assert out.segments == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert out.change_points == (1, 2, 3)

    def test_non_contiguous_rejected(self):
        text = "segment 0 2\ncluster 0: a\n# gap\nsegment 4 5\ncluster 0: a\n"
        with pytest.raises(FormatError, match=r"^line 4: bad segment range \(4, 5\)$"):
            load_output(text)

    @pytest.mark.parametrize("text, message", [
        ("segment 0 3\nsegment 2 5\n", r"line 2: bad segment range \(2, 5\)"),
        ("# header\nsegment 1 3\n", "line 2: first segment must start at time 0"),
        ("segment 0 1\nsegment 2 1\n", r"line 2: bad segment range \(2, 1\)"),
        ("segment 0 -1\n", r"line 1: bad segment range \(0, -1\)"),
        ("segment 0\n", "line 1: segment line needs start and end"),
        ("segment a b\n", "line 1: bad segment bounds"),
        ("cluster 0: a\nsegment 0 0\n", "line 1: cluster line before any segment line"),
        ("segment 0 0\nedge a b\n", "line 2: unrecognized line 'edge a b'"),
        ("# header\n\n# no segment\n", "no segments found"),
    ], ids=["overlap", "late-start", "end-before-start", "negative-end", "one-bound",
            "non-integer-bounds", "cluster-first", "unrecognized", "comments-only"])
    def test_load_checks_contiguity_by_line(self, text, message):
        with pytest.raises(FormatError, match=f"^{message}$"):
            load_output(text)

    def test_round_trip_exhaustive_small_k(self):
        # segment starts reproduce the change point set, for every T, k <= 12
        for k in range(1, 13):
            for r in range(k):
                for points in itertools.combinations(range(1, k), r):
                    out = output_of(points, k, [Partition({})] * (r + 1))
                    assert out.change_points == points
                    assert out.k == k


class TestSegIndex:
    """The index of the segment covering a snapshot, as the tests' ``segment_at``
    and the library's ``evaluation._overlaps`` find it from the change points."""

    def test_examples(self):
        out = output_of((4, 7), 10, [Partition({})] * 3)
        assert [segment_at(out, j) for j in (0, 3, 4, 6, 7, 9)] == [0, 0, 1, 1, 2, 2]
        assert _overlaps(out, out) == [(0, 4, 0, 0), (4, 7, 1, 1), (7, 10, 2, 2)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            segment_at(output_of((4, 7), 10, [Partition({})] * 3), 10)
        with pytest.raises(ValueError):
            segment_at(ScdOutput(((0, 2),), (Partition({}),)), -1)
        with pytest.raises(ValueError, match="different numbers of snapshots"):
            _overlaps(ScdOutput(((0, 2),), (Partition({}),)), ScdOutput(((0, 3),), (Partition({}),)))

    def test_matches_ranges_exhaustively(self):
        for k in range(1, 13):
            maximal = output_of(range(1, k), k, [Partition({})] * k)
            for r in range(k):
                for points in itertools.combinations(range(1, k), r):
                    out = output_of(points, k, [Partition({})] * (r + 1))
                    index = [i for i, (start, end) in enumerate(out.segments)
                             for _ in range(start, end + 1)]
                    assert [segment_at(out, j) for j in range(k)] == index
                    assert [s1 for _, _, s1, _ in _overlaps(out, maximal)] == index


class TestPartition:
    def test_from_clusters(self):
        p = from_clusters([["c"], ["b", "a"]])
        assert (p.labels, p.codes.tolist()) == (("a", "b", "c"), [0, 0, 1])
        assert p.num_clusters == 2
        assert p.labels == ("a", "b", "c")
        assert Partition({}).num_clusters == 0

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            from_clusters([["a"], []])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            from_clusters([["a", "b"], ["b"]])

    def test_same_grouping_ignores_ids(self):
        p = Partition({"a": 5, "b": 5, "c": 9})
        q = Partition({"a": 0, "b": 0, "c": 1})
        assert p == q and hash(p) == hash(q)
        assert p != Partition({"a": 0, "b": 1, "c": 1})

    def test_canonical_orders_by_smallest_member(self):
        p = Partition({"d": 7, "a": 3, "b": 7})
        assert p.codes.tolist() == [0, 1, 1]
        assert assignment(p) == {"a": 0, "b": 1, "d": 1}
        assert Partition.from_codes(p.labels, [-4, 8, 8]) == p
        with pytest.raises(ValueError):
            p.codes[0] = 1  # read-only

    def test_pickle_keeps_codes_read_only(self):
        p = pickle.loads(pickle.dumps(Partition({"b": 2, "a": 7})))
        assert p == Partition({"a": 0, "b": 1})
        assert not p.codes.flags.writeable

    @settings(max_examples=200)
    @given(st.dictionaries(
        st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=3),
        st.integers(-(2**63), 2**63 - 1), max_size=8,
    ))
    def test_partition_contract(self, mapping):
        """Any label order and any int64 ids: sorted labels, canonical codes,
        the mapping's grouping, id-blind equality and hash, and a file round trip."""
        p = Partition(mapping)
        assert list(p.labels) == sorted(mapping)
        codes = p.codes.tolist()
        assert is_canonical(codes)
        for (u, cu), (v, cv) in itertools.combinations(zip(p.labels, codes), 2):
            assert (cu == cv) == (mapping[u] == mapping[v])
        renamed = {u: ~cid for u, cid in reversed(mapping.items())}
        assert Partition(renamed) == p and hash(Partition(renamed)) == hash(p)
        out = ScdOutput(((0, 0),), (p,))
        assert load_output(dump_output(out)) == out


# labels are whitespace-free; ':' and a leading '#' need no escaping
SOLUTION_LABELS = st.one_of(
    st.sampled_from(["a", "b:c", ":", "#", "#x", "x#", "::y", "cluster"]),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4),
)


@st.composite
def solutions(draw):
    k = draw(st.integers(1, 8))
    points = sorted(draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
    partitions = []
    for _ in range(len(points) + 1):
        domain = draw(st.lists(SOLUTION_LABELS, unique=True, max_size=6))  # may be empty
        cids = draw(st.lists(st.integers(-3, 3), min_size=len(domain), max_size=len(domain)))
        partitions.append(Partition(dict(zip(domain, cids))))
    return output_of(points, k, partitions)


class TestScdOutput:
    def _output(self):
        p0 = from_clusters([["a", "b"], ["c"]])
        p1 = from_clusters([["a", "c", "b"]])
        return ScdOutput(((0, 1), (2, 3)), (p0, p1))

    def test_partition_count_must_match(self):
        with pytest.raises(ValueError):
            ScdOutput(((0, 1), (2, 3)), (Partition({"a": 0}),))

    @pytest.mark.parametrize("segments, partitions, message", [
        ((), 0, "an output needs at least one segment"),
        (((1, 3),), 1, "first segment starts at 1, not at time 0"),
        (((0, 2), (4, 5)), 2, r"segment \(4, 5\) does not start right after snapshot 2"),
        (((0, 3), (3, 5)), 2, r"segment \(3, 5\) does not start right after snapshot 3"),
        (((0, 2), (3, 3), (3, 4)), 3, r"segment \(3, 4\) does not start right after snapshot 3"),
        (((0, -1),), 1, r"segment \(0, -1\) ends before it starts"),
        (((0, 1), (2, 1)), 2, r"segment \(2, 1\) ends before it starts"),
        (((0, 1), (2, 3)), 1, "2 segments but 1 partitions"),
        (((0, 1),), 2, "1 segments but 2 partitions"),
    ], ids=["empty", "late-start", "gap", "overlap", "repeated-start", "negative-end",
            "end-before-start", "too-few-partitions", "too-many-partitions"])
    def test_rejects_invalid_segments(self, segments, partitions, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScdOutput(segments, (Partition({"a": 0}),) * partitions)

    def test_partition_at(self):
        out = self._output()
        assert partition_at(out, 0) is out.partitions[0]
        assert partition_at(out, 3) is out.partitions[1]

    def test_validate_for(self):
        out = self._output()
        net = load_dynamic_network("0 a b\n1 a c\n2 a b\n3 b c")
        out.validate_for(net)
        bad = load_dynamic_network("0 a b\n1 a c\n2 a b\n3 b z")
        with pytest.raises(ValueError):
            out.validate_for(bad)

    def test_validate_for_superset(self):
        out = self._output()
        net = load_dynamic_network("0 a b\n1 a b\n2 a b\n3 b c")
        out.validate_for(net, exact=False)
        with pytest.raises(ValueError, match=r"segment \[0,1\] .*holds node 'c'"):
            out.validate_for(net)
        missing = load_dynamic_network("0 a b\n1 a d\n2 a b\n3 b c")
        for exact in (True, False):
            with pytest.raises(ValueError, match=r"segment \[0,1\] .*misses node 'd'"):
                out.validate_for(missing, exact=exact)

    def test_serialization_format(self):
        out = self._output()
        text = dump_output(out)
        assert text == (
            "segment 0 1\n"
            "cluster 0: a b\n"
            "cluster 1: c\n"
            "segment 2 3\n"
            "cluster 0: a b c\n"
        )

    def test_round_trip(self):
        out = self._output()
        again = load_output(dump_output(out))
        assert again == out

    @pytest.mark.parametrize("bad", ["a b", "", "a\x1cb"])
    def test_labels_the_format_cannot_hold_are_not_dumped(self, bad):
        # "cluster 0: a b c" would load back as a cluster of three nodes
        out = ScdOutput(((0, 0), (1, 1)), (Partition({"c": 0}), Partition({bad: 0, "c": 0})))
        with pytest.raises(ValueError, match=re.escape(f"label {bad!r} is empty or holds whitespace")):
            dump_output(out)

    @settings(max_examples=200)
    @given(solutions())
    def test_round_trip_property(self, out):
        text = dump_output(out)
        again = load_output(text)
        assert again == out
        assert dump_output(again) == text

    def test_cluster_ids_follow_smallest_member(self):
        p = from_clusters([["z", "m"], ["a", "q"]])
        text = dump_output(ScdOutput(((0, 0),), (p,)))
        assert "cluster 0: a q" in text
        assert "cluster 1: m z" in text

    def test_load_rejects_gaps(self):
        with pytest.raises(FormatError):
            load_output("segment 0 1\ncluster 0: a\nsegment 3 4\ncluster 0: a\n")

    def test_load_bounds_segment_end(self):
        # a segment end fixes k, which sim_t spends an array entry per snapshot on
        for end in (MAX_TIME_INDEX + 1, 999_999_999):
            with pytest.raises(FormatError, match=f"^line 2: segment end {end} above {MAX_TIME_INDEX}$"):
                load_output(f"segment 0 0\nsegment 1 {end}\n")
        assert load_output(f"segment 0 {MAX_TIME_INDEX}\n").k == MAX_TIME_INDEX + 1

    def test_load_rejects_node_in_two_clusters_with_line(self):
        text = "segment 0 0\ncluster 0: a b\n# note\ncluster 1: c b\n"
        with pytest.raises(FormatError, match="^line 4: node 'b' assigned to two clusters$"):
            load_output(text)
        # a repeat within one cluster line is one member
        assert load_output("segment 0 0\ncluster 0: a a b\n").partitions[0].num_clusters == 1

    def test_load_rejects_cluster_line_without_colon(self):
        for line in ("cluster 0 a b", "cluster 0 a:b"):
            with pytest.raises(FormatError, match="line 2: cluster line lacks the ':'"):
                load_output(f"segment 0 0\n{line}\n")
        with pytest.raises(FormatError, match="line 2: empty cluster"):
            load_output("segment 0 0\ncluster 0:\n")

    def test_load_skips_comments(self):
        out = load_output("# header\nsegment 0 0\ncluster 0: a b\n")
        assert out.k == 1

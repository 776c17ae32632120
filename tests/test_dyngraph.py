import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dynseg.dyngraph import (
    MAX_TIME_INDEX,
    ChangePointSet,
    DynamicNetwork,
    FormatError,
    Partition,
    ScdOutput,
    Segmentation,
    Snapshot,
    dump_dynamic_network,
    dump_output,
    load_dynamic_network,
    load_output,
)


class TestLoadDynamicNetwork:
    def test_basic_edges(self):
        net = load_dynamic_network("0 a b\n0 b c\n1 a c")
        assert net.k == 2
        assert net[0].edges == {("a", "b"), ("b", "c")}
        assert net[1].edges == {("a", "c")}

    def test_duplicate_edges_collapse(self):
        net = load_dynamic_network("0 a b\n0 a b")
        assert len(net[0].edges) == 1
        net = load_dynamic_network("0 a b\n0 b a")
        assert len(net[0].edges) == 1

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
        assert net[0].nodes == {"a", "b", "c"}
        assert len(net[0].edges) == 1

    def test_missing_intermediate_time_gives_empty_snapshot(self):
        net = load_dynamic_network("0 a b\n2 a b")
        assert net.k == 3
        assert len(net[1].nodes) == 0

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
        assert net[1] == net[199999] == Snapshot()
        assert net.node_offsets[1] == net.node_offsets[200000] == 2
        assert net.edge_offsets[199999] == net.edge_offsets[200000] == 1
        assert len(net.node_ids) == 4 and len(net.edge_u) == 2

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
        net = DynamicNetwork(snapshots)
        text = dump_dynamic_network(net)
        again = load_dynamic_network(text)
        assert again == net
        assert dump_dynamic_network(again) == text

    def test_trailing_empty_snapshot_cannot_be_dumped(self):
        net = DynamicNetwork([Snapshot(["a", "b"], [("a", "b")]), Snapshot()])
        with pytest.raises(ValueError):
            dump_dynamic_network(net)
        with pytest.raises(ValueError):
            dump_dynamic_network(DynamicNetwork([Snapshot(), Snapshot()]))


class TestIdArrays:
    def test_layout(self):
        net = load_dynamic_network("0 b a\n0 c\n1 c b\n3 a c\n")
        assert net.labels == ("a", "b", "c")
        assert net.label_index == {"a": 0, "b": 1, "c": 2}
        assert net.node_offsets.tolist() == [0, 3, 5, 5, 7]
        assert net.node_ids.tolist() == [0, 1, 2, 1, 2, 0, 2]
        assert net.edge_offsets.tolist() == [0, 1, 2, 2, 3]
        assert list(zip(net.edge_u.tolist(), net.edge_v.tolist())) == [
            (0, 1), (1, 2), (0, 2),
        ]
        assert net.segment_node_ids(1, 2).tolist() == [1, 2]
        assert [a.tolist() for a in net.segment_edges(1, 3)] == [[1, 0], [2, 2]]
        for name in DynamicNetwork.__slots__[2:]:
            with pytest.raises(ValueError):
                getattr(net, name)[0] = 2

    def test_views_and_equality(self):
        net = load_dynamic_network("0 b a\n0 c\n1 c b\n3 a c\n")
        assert net[0] == Snapshot(["c"], [("a", "b")])
        assert net[-1] == Snapshot([], [("a", "c")])
        assert [len(g.nodes) for g in net] == [3, 2, 0, 2]
        with pytest.raises(IndexError):
            net[4]
        assert DynamicNetwork(list(net)) == net
        assert hash(DynamicNetwork(list(net))) == hash(net)
        assert net != load_dynamic_network("0 b a\n0 c\n1 c b\n3 a b\n")

    def test_pickles(self):
        # a spawned worker process receives its network pickled
        net = load_dynamic_network("0 b a\n0 c\n1 c b\n3 a c\n")
        copy = pickle.loads(pickle.dumps(net))
        assert copy == net and copy.label_index == net.label_index
        assert [copy[j] for j in range(copy.k)] == list(net)

    def test_snapshots_and_loader_build_the_same_arrays(self):
        # labels sort as strings, so ids follow "10" < "9"; edges given
        # either way round and repeated collapse
        snapshots = [Snapshot(["9"], [("10", "2"), ("2", "10")]), Snapshot(["x"])]
        net = DynamicNetwork(snapshots)
        assert net.labels == ("10", "2", "9", "x")
        assert net.node_ids.tolist() == [0, 1, 2, 3]
        assert (net.edge_u.tolist(), net.edge_v.tolist()) == ([0], [1])
        assert load_dynamic_network("0 2 10\n0 10 2\n0 9\n1 x\n") == net
        with pytest.raises(ValueError, match="at least one snapshot"):
            DynamicNetwork([])


class TestSnapshot:
    def test_edge_endpoints_join_node_set(self):
        g = Snapshot(["x"], [("a", "b")])
        assert g.nodes == {"x", "a", "b"}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Snapshot([], [("a", "a")])


class TestSegmentation:
    def test_from_change_points(self):
        seg = ChangePointSet((4, 7), 10).segmentation()
        assert tuple(seg) == ((0, 3), (4, 6), (7, 9))

    def test_no_change_points(self):
        seg = ChangePointSet((), 5).segmentation()
        assert tuple(seg) == ((0, 4),)

    def test_maximal(self):
        seg = ChangePointSet((1, 2, 3), 4).segmentation()
        assert tuple(seg) == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_invalid_points(self):
        with pytest.raises(ValueError):
            ChangePointSet((0,), 5)
        with pytest.raises(ValueError):
            ChangePointSet((5,), 5)
        with pytest.raises(ValueError):
            ChangePointSet((3, 3), 5)

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValueError):
            Segmentation(((0, 2), (4, 5)))

    def test_round_trip_exhaustive_small_k(self):
        # segment starts reproduce the change point set, for every T, k <= 12
        for k in range(1, 13):
            for r in range(k):
                for points in itertools.combinations(range(1, k), r):
                    cps = ChangePointSet(points, k)
                    seg = cps.segmentation()
                    starts = tuple(s for s, _ in seg)[1:]
                    assert starts == points
                    assert seg.k == k


class TestSegIndex:
    def test_examples(self):
        cps = ChangePointSet((4, 7), 10)
        assert cps.seg_index(0) == 0
        assert cps.seg_index(4) == 1
        assert cps.seg_index(9) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ChangePointSet((4, 7), 10).seg_index(10)
        with pytest.raises(ValueError):
            ChangePointSet((), 3).seg_index(-1)

    def test_matches_ranges_exhaustively(self):
        for k in range(1, 13):
            for r in range(k):
                for points in itertools.combinations(range(1, k), r):
                    cps = ChangePointSet(points, k)
                    for i, (start, end) in enumerate(cps.segmentation()):
                        for j in range(start, end + 1):
                            assert cps.seg_index(j) == i


class TestPartition:
    def test_from_clusters(self):
        p = Partition.from_clusters([["a", "b"], ["c"]])
        assert p.num_clusters == 2
        assert p.domain == {"a", "b", "c"}

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_clusters([["a"], []])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_clusters([["a", "b"], ["b"]])

    def test_same_grouping_ignores_ids(self):
        p = Partition({"a": 5, "b": 5, "c": 9})
        q = Partition({"a": 0, "b": 0, "c": 1})
        assert p.same_grouping(q)
        assert not p.same_grouping(Partition({"a": 0, "b": 1, "c": 1}))

    def test_canonical_orders_by_smallest_member(self):
        p = Partition({"d": 7, "a": 3, "b": 7})
        c = p.canonical()
        assert c.assignment == {"a": 0, "b": 1, "d": 1}


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
    return ScdOutput(ChangePointSet(tuple(points), k), tuple(partitions))


class TestScdOutput:
    def _output(self):
        cps = ChangePointSet((2,), 4)
        p0 = Partition.from_clusters([["a", "b"], ["c"]])
        p1 = Partition.from_clusters([["a", "c", "b"]])
        return ScdOutput(cps, (p0, p1))

    def test_partition_count_must_match(self):
        cps = ChangePointSet((2,), 4)
        with pytest.raises(ValueError):
            ScdOutput(cps, (Partition({"a": 0}),))

    def test_partition_at(self):
        out = self._output()
        assert out.partition_at(0) is out.partitions[0]
        assert out.partition_at(3) is out.partitions[1]

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
        assert again.change_points == out.change_points
        assert all(
            p.same_grouping(q) for p, q in zip(again.partitions, out.partitions)
        )

    @settings(max_examples=200)
    @given(solutions())
    def test_round_trip_property(self, out):
        text = dump_output(out)
        again = load_output(text)
        assert again.change_points == out.change_points
        assert again.partitions == tuple(p.canonical() for p in out.partitions)
        assert dump_output(again) == text

    def test_cluster_ids_follow_smallest_member(self):
        cps = ChangePointSet((), 1)
        p = Partition.from_clusters([["z", "m"], ["a", "q"]])
        text = dump_output(ScdOutput(cps, (p,)))
        assert "cluster 0: a q" in text
        assert "cluster 1: m z" in text

    def test_load_rejects_gaps(self):
        with pytest.raises(FormatError):
            load_output("segment 0 1\ncluster 0: a\nsegment 3 4\ncluster 0: a\n")

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

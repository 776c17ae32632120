import hashlib
import math
import tracemalloc

import pytest

from dynseg import generator
from dynseg._seeds import rng_for
from dynseg.dyngraph import Partition, ScdOutput, dump_dynamic_network, dump_output
from dynseg.generator import (
    GeneratorConfig,
    build_partition_graph,
    derive_segment_partitions,
    generate,
    sample_segments,
)
from label_graphs import assignment, clusters_of, from_clusters, partition_at, snapshot_at

DEFAULT = dict(k=16, l=4, n=50, c_min=5, c_in=20, c_out=4)


def has_edge(g, u, v):
    return (min(u, v), max(u, v)) in g.edges


def _degrees(edges):
    """Out-degree of each left supernode and in-degree of each right one."""
    d_out: dict[int, int] = {}
    d_in: dict[int, int] = {}
    for u, v, _ in edges:
        d_out[u] = d_out.get(u, 0) + 1
        d_in[v] = d_in.get(v, 0) + 1
    return d_out, d_in


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(k=4, l=0, n=50, c_min=5, c_in=20, c_out=4)
        with pytest.raises(ValueError):
            GeneratorConfig(k=4, l=5, n=50, c_min=5, c_in=20, c_out=4)
        with pytest.raises(ValueError):
            GeneratorConfig(k=4, l=2, n=9, c_min=5, c_in=5, c_out=2)
        with pytest.raises(ValueError):
            GeneratorConfig(k=4, l=2, n=50, c_min=5, c_in=60, c_out=4)
        with pytest.raises(ValueError):
            GeneratorConfig(k=4, l=2, n=50, c_min=5, c_in=10, c_out=12)

    def test_too_tight_for_transitions(self):
        # only two clusters fit, and two clusters admit no transition, so a
        # multi-segment configuration is refused before any draw
        for n, c_min in ((10, 5), (4, 2), (7, 3), (20, 8), (33, 13)):
            with pytest.raises(ValueError, match=r"^need room for three clusters when l >= 2"):
                GeneratorConfig(k=4, l=2, n=n, c_min=c_min, c_in=1, c_out=1)
            GeneratorConfig(k=4, l=1, n=n, c_min=c_min, c_in=1, c_out=1)

    @pytest.mark.parametrize("n, c_min", [(10, 3), (60, 20), (9, 3), (30, 10)])
    def test_every_seed_generates(self, n, c_min):
        # a first layer with no reachable second layer is drawn again
        for l in (2, 4, 8):
            for seed in range(12):
                cfg = GeneratorConfig(k=8, l=l, n=n, c_min=c_min, c_in=1, c_out=0.5, seed=seed)
                graph = build_partition_graph(cfg, rng_for(seed, "g"))
                assert len(graph.cluster_sizes) == l
                assert all(min(sizes) >= c_min for sizes in graph.cluster_sizes)


class TestChangePoints:
    def test_l1_empty(self):
        assert sample_segments(10, 1, rng_for(0, "t")) == ((0, 9),)

    def test_lk_all_points(self):
        segments = sample_segments(6, 6, rng_for(0, "t"))
        assert segments == tuple((t, t) for t in range(6))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_segments(4, 5, rng_for(0, "t"))

    def test_distinct_and_sorted(self):
        for i in range(50):
            segments = sample_segments(16, 4, rng_for(i, "t"))
            points = [start for start, _ in segments[1:]]
            assert len(set(points)) == 3
            assert points == sorted(points)
            assert all(1 <= t <= 15 for t in points)
            assert ScdOutput(segments, (Partition({}),) * 4).k == 16

    def test_inclusion_frequency_uniform(self):
        trials = 2000
        counts = {t: 0 for t in range(1, 16)}
        for i in range(trials):
            for t, _ in sample_segments(16, 4, rng_for(i, "freq"))[1:]:
                counts[t] += 1
        expected = 3 / 15
        sigma = math.sqrt(expected * (1 - expected) / trials)
        for t, c in counts.items():
            assert abs(c / trials - expected) < 3 * sigma, t


class TestPartitionGraph:
    def test_single_layer_no_edges(self):
        cfg = GeneratorConfig(l=1, **{k: v for k, v in DEFAULT.items() if k != "l"})
        graph = build_partition_graph(cfg, rng_for(1, "g"))
        assert len(graph.cluster_sizes) == 1
        assert graph.transitions == ()

    def test_layer_sizes_within_bounds(self):
        cfg = GeneratorConfig(**DEFAULT)
        for seed in range(20):
            graph = build_partition_graph(cfg, rng_for(seed, "g"))
            for sizes in graph.cluster_sizes:
                assert 2 <= len(sizes) <= cfg.n // cfg.c_min

    def test_degree_conditions(self):
        cfg = GeneratorConfig(**DEFAULT)
        for seed in range(20):
            graph = build_partition_graph(cfg, rng_for(seed, "g"))
            for layer, edges in enumerate(graph.transitions):
                p = len(graph.cluster_sizes[layer])
                q = len(graph.cluster_sizes[layer + 1])
                # every left supernode has an outgoing edge, every right an incoming
                assert {u for u, _, _ in edges} == set(range(p))
                assert {v for _, v, _ in edges} == set(range(q))
                # each edge is part of exactly one merge/split/continuation
                d_out, d_in = _degrees(edges)
                for u, v, _ in edges:
                    assert (d_out[u] == 1) or (d_out[u] > 1 and d_in[v] == 1)

    def test_not_a_perfect_matching(self):
        cfg = GeneratorConfig(**DEFAULT)
        for seed in range(20):
            graph = build_partition_graph(cfg, rng_for(seed, "g"))
            for edges in graph.transitions:
                d_out, d_in = _degrees(edges)
                all_continuations = all(
                    d_out[u] == 1 and d_in[v] == 1 for u, v, _ in edges
                )
                assert not all_continuations

    def test_planned_sizes_conserve_nodes(self):
        cfg = GeneratorConfig(**DEFAULT)
        for seed in range(20):
            graph = build_partition_graph(cfg, rng_for(seed, "g"))
            for sizes in graph.cluster_sizes:
                assert sum(sizes) == cfg.n
                assert all(s >= cfg.c_min for s in sizes)


class TestDerivePartitions:
    def test_single_layer_partition(self):
        cfg = GeneratorConfig(k=4, l=1, n=50, c_min=5, c_in=20, c_out=4)
        graph = build_partition_graph(cfg, rng_for(3, "g"))
        parts = derive_segment_partitions(graph, cfg.n, rng_for(3, "m"))
        assert len(parts) == 1
        sizes = sorted(len(m) for m in clusters_of(parts[0]))
        assert sum(sizes) == 50
        assert all(s >= 5 for s in sizes)
        assert parts[0].num_clusters == len(graph.cluster_sizes[0])

    def test_continuation_keeps_members_and_merge_unions(self, monkeypatch):
        # the member list of every supernode, indexed by supernode id, as the
        # generator hands it to the partition of its layer
        layers: list[list[set[str]]] = []
        build = generator._layer_partition

        def recording(members):
            layers.append([{str(u) for u in m} for m in members])
            return build(members)

        monkeypatch.setattr(generator, "_layer_partition", recording)
        cfg = GeneratorConfig(**DEFAULT)
        for seed in range(10):
            graph = build_partition_graph(cfg, rng_for(seed, "g"))
            layers.clear()
            parts = derive_segment_partitions(graph, cfg.n, rng_for(seed, "m"))
            assert parts == [from_clusters(members) for members in layers]
            for layer, edges in enumerate(graph.transitions):
                prev, nxt = layers[layer], layers[layer + 1]
                incoming: dict[int, set] = {}
                d_out, d_in = _degrees(edges)
                for u, v, _ in edges:
                    if d_out[u] == 1:
                        incoming.setdefault(v, set()).update(prev[u])
                        if d_in[v] == 1:  # continuation: same members
                            assert nxt[v] == prev[u]
                for v, members in incoming.items():
                    if d_in[v] > 1:  # pure merge target
                        assert set(nxt[v]) == members

    def test_adjacent_partitions_never_identical(self):
        for seed in range(15):
            cfg = GeneratorConfig(seed=seed, **DEFAULT)
            _, truth = generate(cfg)
            for p, q in zip(truth.partitions, truth.partitions[1:]):
                assert p != q


class TestSnapshots:
    def test_cin_max_single_cluster_complete_graph(self):
        cfg = GeneratorConfig(k=2, l=1, n=12, c_min=6, c_in=12, c_out=1, seed=3)
        net, truth = generate(cfg)
        if truth.partitions[0].num_clusters == 2:
            # intra pairs are always edges
            for g in (snapshot_at(net, j) for j in range(net.k)):
                for members in clusters_of(truth.partitions[0]):
                    ms = sorted(members)
                    for i, u in enumerate(ms):
                        for v in ms[i + 1:]:
                            assert has_edge(g, u, v)

    def test_cout_zero_no_inter_edges(self):
        cfg = GeneratorConfig(k=3, l=1, n=20, c_min=5, c_in=10, c_out=0, seed=4)
        net, truth = generate(cfg)
        p = assignment(truth.partitions[0])
        for g in (snapshot_at(net, j) for j in range(net.k)):
            for u, v in g.edges:
                assert p[u] == p[v]

    def test_edge_frequencies_match_probabilities(self):
        cfg = GeneratorConfig(seed=8, **DEFAULT)
        intra_pairs = intra_edges = inter_pairs = inter_edges = 0
        count = 0
        seed = 0
        while count < 200:
            cfg = GeneratorConfig(seed=seed, **DEFAULT)
            net, truth = generate(cfg)
            seed += 1
            for j in range(net.k):
                if count >= 200:
                    break
                g = snapshot_at(net, j)
                count += 1
                assign = assignment(partition_at(truth, j))
                nodes = sorted(g.nodes)
                for i, u in enumerate(nodes):
                    for v in nodes[i + 1:]:
                        same = assign[u] == assign[v]
                        edge = has_edge(g, u, v)
                        if same:
                            intra_pairs += 1
                            intra_edges += edge
                        else:
                            inter_pairs += 1
                            inter_edges += edge
        p_in, p_out = 0.4, 0.08
        sd_in = math.sqrt(p_in * (1 - p_in) / intra_pairs)
        sd_out = math.sqrt(p_out * (1 - p_out) / inter_pairs)
        assert abs(intra_edges / intra_pairs - p_in) < 3 * sd_in
        assert abs(inter_edges / inter_pairs - p_out) < 3 * sd_out

    def test_fixed_node_set(self):
        cfg = GeneratorConfig(seed=2, **DEFAULT)
        net, _ = generate(cfg)
        expected = {str(i) for i in range(50)}
        for g in (snapshot_at(net, j) for j in range(net.k)):
            assert g.nodes == expected


class TestPairBlocks:
    @pytest.mark.parametrize("block", [1, 40, 300, 1224])
    def test_blocks_do_not_change_the_network(self, monkeypatch, block):
        # 1,225 pairs at n=50: a segment of s snapshots draws 1,225·s
        # uniforms, one block by default and several here
        cfg = GeneratorConfig(seed=5, **DEFAULT)
        net, truth = generate(cfg)
        pairs = cfg.n * (cfg.n - 1) // 2
        assert all((end - start + 1) * pairs <= generator.PAIR_BLOCK
                   for start, end in truth.segments)
        monkeypatch.setattr(generator, "PAIR_BLOCK", block)
        assert all((end - start + 1) * pairs > block for start, end in truth.segments)
        again, truth_again = generate(cfg)
        assert dump_dynamic_network(again) == dump_dynamic_network(net)
        assert dump_output(truth_again) == dump_output(truth)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_every_pair_of_every_snapshot_once(self, monkeypatch, block):
        # c_in = c_out = n puts every uniform below both probabilities, so
        # each snapshot is the complete graph; a uniform mapped to the wrong
        # pair or snapshot leaves a pair out and repeats another
        if block is not None:
            monkeypatch.setattr(generator, "PAIR_BLOCK", block)
        for n, l in ((2, 1), (3, 1), (6, 2), (9, 3)):
            cfg = GeneratorConfig(k=4, l=l, n=n, c_min=n // 3 or 1, c_in=n, c_out=n, seed=n)
            net, _ = generate(cfg)
            complete = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for t in range(cfg.k):
                u, v = net.segment_edges(t, t)
                assert list(zip(u.tolist(), v.tolist())) == complete

    def test_memory_stays_bounded_at_2000_nodes(self):
        # drawing all 1,999,000 pairs of a snapshot at once peaked near 81 MB;
        # 16 MB is one float64 per pair of one snapshot
        cfg = GeneratorConfig(k=4, l=2, n=2000, c_min=50, c_in=20, c_out=4, seed=3)
        tracemalloc.start()
        try:
            net, _ = generate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.k == 4 and len(net.labels) == 2000
        assert peak < 16 * 2**20


def _golden_grid():
    """k=8 over n, c_min, l, c_out and two seeds, plus one k=2, n=1,100
    network whose one segment spans several pair blocks."""
    for n in (6, 24, 60):
        for c_min in sorted({1, 2, 3, n // 4, n // 3}):
            for l in (1, 2, 4):
                if 3 * c_min > n:
                    continue
                c_in = min(20, n)
                for c_out in (0, 4, c_in):
                    for seed in (0, 1):
                        yield GeneratorConfig(k=8, l=l, n=n, c_min=c_min, c_in=c_in,
                                              c_out=c_out, seed=seed)
    yield GeneratorConfig(k=2, l=1, n=1100, c_min=100, c_in=20, c_out=4, seed=0)


# sha256 of every network and truth file of _golden_grid, in order; it
# follows numpy's RNG streams, as the digests of test_golden.py do
GRID_GOLDEN = "dd967824b6c7bc4f709f1a067e3cbc3a119e5a37ac54bea48c08ad39aa7c2de8"


class TestDeterminism:
    def test_grid_golden(self):
        digest = hashlib.sha256()
        for cfg in _golden_grid():
            net, truth = generate(cfg)
            digest.update(dump_dynamic_network(net).encode())
            digest.update(dump_output(truth).encode())
        assert digest.hexdigest() == GRID_GOLDEN

    def test_same_seed_identical_output(self):
        cfg = GeneratorConfig(seed=99, **DEFAULT)
        net1, truth1 = generate(cfg)
        net2, truth2 = generate(cfg)
        assert dump_dynamic_network(net1) == dump_dynamic_network(net2)
        assert dump_output(truth1) == dump_output(truth2)

    def test_different_seeds_differ(self):
        cfg1 = GeneratorConfig(seed=1, **DEFAULT)
        cfg2 = GeneratorConfig(seed=2, **DEFAULT)
        assert dump_dynamic_network(generate(cfg1)[0]) != dump_dynamic_network(generate(cfg2)[0])

    def test_truth_validates_against_network(self):
        cfg = GeneratorConfig(seed=17, **DEFAULT)
        net, truth = generate(cfg)
        truth.validate_for(net)
        assert truth.num_segments == 4

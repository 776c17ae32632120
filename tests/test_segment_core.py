"""The integer-array segment core checked against string-keyed reference loops.

The references below are the dict-based blockmodel counts, log-likelihood
loop, per-snapshot fit loops and sum-graph loop that the array code in
``objectives`` and ``consensus`` replaced.  The array counts,
log-likelihoods and sum graphs must equal them exactly.  The fit loops add
their cluster terms in the iteration order of a frozenset of string labels,
which varies with the hash seed, so the fits agree only to rounding.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from dynseg.consensus import sum_graph
from dynseg.dyngraph import DynamicNetwork, Partition, Snapshot, load_dynamic_network
from dynseg.objectives import FitMeasure, _segment_counts, segment_log_likelihood, snapshot_fit
from label_graphs import clusters_of, edge_weights, restrict

LABELS = ["a", "b", "c", "d", "e", "f"]
EXTRA = ["x", "y"]  # partition labels that no snapshot holds


def reference_counts(network, start, end, p):
    """Edge and node-pair counts keyed by pairs (a, b), a <= b, of p's codes."""
    edge_counts: dict[tuple[int, int], int] = {}
    pair_counts: dict[tuple[int, int], int] = {}
    assign = p.assignment
    for j in range(start, end + 1):
        g = network[j]
        if not g.nodes <= p.domain:
            raise ValueError(f"partition does not cover snapshot {j}")
        sizes: dict[int, int] = {}
        for u in g.nodes:
            sizes[assign[u]] = sizes.get(assign[u], 0) + 1
        cids = sorted(sizes)
        for idx, a in enumerate(cids):
            pair_counts[(a, a)] = pair_counts.get((a, a), 0) + sizes[a] * (sizes[a] - 1) // 2
            for b in cids[idx + 1:]:
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + sizes[a] * sizes[b]
        for u, v in g.edges:
            a, b = assign[u], assign[v]
            key = (a, b) if a <= b else (b, a)
            edge_counts[key] = edge_counts.get(key, 0) + 1
    return edge_counts, pair_counts


def reference_log_likelihood(network, start, end, p):
    edge_counts, pair_counts = reference_counts(network, start, end, p)
    ll = 0.0
    for key, n in pair_counts.items():
        if n == 0:
            continue
        m = edge_counts.get(key, 0)
        theta = m / n
        if m > 0:
            ll += m * math.log(theta)
        if n - m > 0:
            ll += (n - m) * math.log(1.0 - theta)
    return ll


def reference_cluster_stats(p, g):
    restricted = restrict(p, g.nodes)
    if len(restricted.assignment) != len(g.nodes):
        missing = sorted(g.nodes - restricted.domain)[:3]
        raise ValueError(f"partition does not cover snapshot nodes, e.g. {missing}")
    assign = restricted.assignment
    clusters = dict(enumerate(clusters_of(restricted)))
    m_c = {cid: 0 for cid in clusters}
    b_c = {cid: 0 for cid in clusters}
    for u, v in g.edges:
        cu, cv = assign[u], assign[v]
        if cu == cv:
            m_c[cu] += 1
        else:
            b_c[cu] += 1
            b_c[cv] += 1
    return restricted, clusters, m_c, b_c


def reference_adjacency(g):
    adj = {u: set() for u in g.nodes}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_modularity(p, g):
    m = len(g.edges)
    if m == 0:
        return 0.0
    _, clusters, m_c, _ = reference_cluster_stats(p, g)
    adj = reference_adjacency(g)
    q = 0.0
    for cid, members in clusters.items():
        d_c = sum(len(adj[u]) for u in members)
        q += m_c[cid] / m - (d_c / (2.0 * m)) ** 2
    return q


def reference_loss_fit(kind, p, g):
    m = len(g.edges)
    if m == 0:
        return 0.0
    restricted, clusters, m_c, b_c = reference_cluster_stats(p, g)
    adj = reference_adjacency(g)
    total = 0.0
    for cid, members in clusters.items():
        n_c = len(members)
        if kind is FitMeasure.CONDUCTANCE:
            total += b_c[cid] / (2.0 * m_c[cid] + n_c)
        elif kind is FitMeasure.NORMALIZED_CUT:
            total += b_c[cid] / (2.0 * m_c[cid] + n_c)
            total += b_c[cid] / (2.0 * (m - m_c[cid]) + n_c)
        else:
            acc = 0.0
            for u in members:
                deg = len(adj[u])
                if deg == 0:
                    continue
                outside = sum(1 for v in adj[u] if restricted.assignment[v] != cid)
                acc += outside / deg
            total += acc / n_c
    return total / len(clusters)


def reference_snapshot_fit(fit, p, g):
    if fit is FitMeasure.MODULARITY:
        return reference_modularity(p, g)
    return 1.0 - reference_loss_fit(fit, p, g)


def reference_sum_graph(network, start, end):
    weights: dict[tuple[str, str], float] = {}
    for j in range(start, end + 1):
        for e in network[j].edges:
            weights[e] = weights.get(e, 0.0) + 1.0
    return weights


def array_counts_by_code(network, start, end, p):
    """The array counts as reference-shaped dicts keyed by code pairs (a, b), a <= b."""
    edges, pairs, sizes = _segment_counts(network, start, end, p)
    present = (sizes > 0).astype(int)
    shared = present.T @ present  # snapshots holding both clusters
    code_pairs = [(a, b) for a in range(p.num_clusters) for b in range(a, p.num_clusters)]
    edge_dict = {(a, b): int(edges[a, b]) for a, b in code_pairs if edges[a, b]}
    pair_dict = {(a, b): int(pairs[a, b]) for a, b in code_pairs if shared[a, b]}
    return edge_dict, pair_dict


@st.composite
def networks(draw):
    k = draw(st.integers(1, 5))
    snapshots = []
    for _ in range(k):
        nodes = draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=6))
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        snapshots.append(Snapshot(nodes, edges))
    return DynamicNetwork(snapshots)


@st.composite
def cases(draw):
    net = draw(networks())
    start = draw(st.integers(0, net.k - 1))
    end = draw(st.integers(start, net.k - 1))
    extra = draw(st.lists(st.sampled_from(EXTRA), unique=True))
    domain = list(net.labels) + extra
    # few ids give shared clusters, many give singletons; ids may be negative
    cids = draw(st.lists(st.integers(-3, 40), min_size=len(domain), max_size=len(domain)))
    return net, start, end, Partition(dict(zip(domain, cids)))


@settings(max_examples=300)
@given(cases())
def test_counts_and_log_likelihood_match_reference(case):
    net, start, end, p = case
    assert array_counts_by_code(net, start, end, p) == reference_counts(net, start, end, p)
    assert segment_log_likelihood(net, start, end, p) == reference_log_likelihood(
        net, start, end, p
    )


@settings(max_examples=300)
@given(cases(), st.data())
def test_uncovered_snapshot_error_matches_reference(case, data):
    net, start, end, p = case
    if not p.assignment:
        return
    dropped = data.draw(st.sampled_from(sorted(p.assignment)))
    partial = Partition({u: c for u, c in p.assignment.items() if u != dropped})
    try:
        reference_counts(net, start, end, partial)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        segment_log_likelihood(net, start, end, partial)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == expected
    # the fits share the coverage check, which, unlike the reference fit
    # loops, also holds on edgeless snapshots
    fit = data.draw(st.sampled_from(list(FitMeasure)))
    if expected is None:
        snapshot_fit(fit, net, start, end, partial)
    else:
        with pytest.raises(ValueError, match=expected):
            snapshot_fit(fit, net, start, end, partial)


@settings(max_examples=300)
@given(cases(), st.sampled_from(list(FitMeasure)))
def test_snapshot_fit_matches_reference(case, fit):
    net, start, end, p = case
    expected = [reference_snapshot_fit(fit, p, net[j]) for j in range(start, end + 1)]
    assert snapshot_fit(fit, net, start, end, p) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def segment_labels(network, start, end):
    return frozenset().union(*(network[j].nodes for j in range(start, end + 1)))


@settings(max_examples=300)
@given(cases())
def test_sum_graph_matches_string_loop(case):
    net, start, end, _ = case
    sg = sum_graph(net, start, end)
    assert edge_weights(sg) == reference_sum_graph(net, start, end)
    assert sg.nodes == segment_labels(net, start, end)


def test_hand_example_with_gaps_absent_nodes_and_extra_labels():
    # snapshot 1 is skipped (empty), d is absent from snapshot 0, z carries
    # a cluster of its own that no snapshot holds, and c is a singleton
    net = load_dynamic_network("0 a b\n0 b c\n2 a b\n2 c d\n3 a d\n3 b\n")
    p = Partition({"a": 5, "b": 5, "c": -1, "d": 2, "z": 9})
    for start in range(net.k):
        for end in range(start, net.k):
            assert array_counts_by_code(net, start, end, p) == reference_counts(
                net, start, end, p
            )
            assert segment_log_likelihood(net, start, end, p) == reference_log_likelihood(
                net, start, end, p
            )
            assert edge_weights(sum_graph(net, start, end)) == reference_sum_graph(net, start, end)
            for fit in FitMeasure:
                expected = [reference_snapshot_fit(fit, p, net[j]) for j in range(start, end + 1)]
                assert snapshot_fit(fit, net, start, end, p) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12
                )

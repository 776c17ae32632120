"""Objective functions for scoring solution outputs.

Two families:

* partition-accuracy scores: the mean over snapshots of a static fit
  measure (modularity, or one of three loss-like measures entered as
  1 - loss);
* model-selection scores: the stochastic-blockmodel log-likelihood of the
  network given the output, penalized per AIC or BIC.

Every per-snapshot quantity restricts the segment partition to the nodes
actually present in that snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dyngraph import DynamicNetwork, Partition, ScdOutput, Snapshot


class FitMeasure(str, Enum):
    MODULARITY = "modularity"
    CONDUCTANCE = "conductance"
    NORMALIZED_CUT = "ncut"
    AVERAGE_ODF = "avgodf"


LOSS_MEASURES = (
    FitMeasure.CONDUCTANCE,
    FitMeasure.NORMALIZED_CUT,
    FitMeasure.AVERAGE_ODF,
)


class Criterion(str, Enum):
    AIC = "aic"
    BIC = "bic"


@dataclass(frozen=True)
class ObjectiveSpec:
    """Either a fit-based score ('qp') or an information criterion ('qb')."""

    family: str  # "qp" | "qb"
    fit: FitMeasure | None = None
    criterion: Criterion | None = None

    def __post_init__(self):
        if self.family == "qp":
            if self.fit is None or self.criterion is not None:
                raise ValueError("qp objective needs a fit measure only")
        elif self.family == "qb":
            if self.criterion is None or self.fit is not None:
                raise ValueError("qb objective needs a criterion only")
        else:
            raise ValueError(f"unknown objective family {self.family!r}")

    @classmethod
    def qp(cls, fit: FitMeasure) -> "ObjectiveSpec":
        return cls("qp", fit=fit)

    @classmethod
    def qb(cls, criterion: Criterion) -> "ObjectiveSpec":
        return cls("qb", criterion=criterion)


def _cluster_stats(p: Partition, g: Snapshot):
    """Per-cluster (n_c, m_c, b_c, degree list) after restricting p to g."""
    restricted = p.restrict(g.nodes)
    if len(restricted.assignment) != len(g.nodes):
        missing = sorted(g.nodes - restricted.domain)[:3]
        raise ValueError(f"partition does not cover snapshot nodes, e.g. {missing}")
    assign = restricted.assignment
    clusters = restricted.clusters()
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


def modularity(p: Partition, g: Snapshot) -> float:
    """Newman-Girvan modularity of p restricted to g's nodes; 0 on empty graphs."""
    m = g.num_edges
    if m == 0:
        return 0.0
    restricted, clusters, m_c, b_c = _cluster_stats(p, g)
    adj = g.adjacency()
    q = 0.0
    for cid, members in clusters.items():
        d_c = sum(len(adj[u]) for u in members)
        q += m_c[cid] / m - (d_c / (2.0 * m)) ** 2
    return q


def loss_fit(kind: FitMeasure, p: Partition, g: Snapshot) -> float:
    """One of the three loss-like fit measures, as printed (lower is better).

    Conductance per cluster is b_c / (2 m_c + n_c); normalized cut adds the
    complementary term b_c / (2 (m - m_c) + n_c); average-ODF averages each
    node's fraction of neighbors outside its cluster.  A zero-edge snapshot
    scores 0 and a degree-0 node contributes 0 to average-ODF.
    """
    if kind not in LOSS_MEASURES:
        raise ValueError(f"{kind} is not a loss-like measure")
    m = g.num_edges
    if m == 0:
        return 0.0
    restricted, clusters, m_c, b_c = _cluster_stats(p, g)
    n_clusters = len(clusters)
    adj = g.adjacency()
    total = 0.0
    for cid, members in clusters.items():
        n_c = len(members)
        if kind is FitMeasure.CONDUCTANCE:
            total += b_c[cid] / (2.0 * m_c[cid] + n_c)
        elif kind is FitMeasure.NORMALIZED_CUT:
            total += b_c[cid] / (2.0 * m_c[cid] + n_c)
            total += b_c[cid] / (2.0 * (m - m_c[cid]) + n_c)
        else:  # average out-degree fraction
            acc = 0.0
            for u in members:
                deg = len(adj[u])
                if deg == 0:
                    continue
                outside = sum(1 for v in adj[u] if restricted.assignment[v] != cid)
                acc += outside / deg
            total += acc / n_c
    return total / n_clusters


def snapshot_fit(fit: FitMeasure, p: Partition, g: Snapshot) -> float:
    """The fit measure oriented so that larger is better (1 - loss for losses)."""
    if fit is FitMeasure.MODULARITY:
        return modularity(p, g)
    return 1.0 - loss_fit(fit, p, g)


def q_p(output: ScdOutput, network: DynamicNetwork, fit: FitMeasure) -> float:
    """Mean per-snapshot fit of the output's segment partitions."""
    total = 0.0
    for p, (start, end) in zip(output.partitions, output.segmentation()):
        for j in range(start, end + 1):
            total += snapshot_fit(fit, p, network[j])
    return total / network.k


# ---------------------------------------------------------------------------
# Blockmodel likelihood and information criteria
# ---------------------------------------------------------------------------

def _segment_counts(
    network: DynamicNetwork, start: int, end: int, p: Partition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blockmodel counts of snapshots start..end under p, from the id arrays.

    Cluster a is the a-th smallest cluster id of p.  Returns the C x C edge
    and node-pair counts, upper triangular (a <= b), and the per-snapshot
    cluster sizes (one row per snapshot).  Labels of p outside the network
    are ignored.
    """
    cids = sorted(set(p.assignment.values()))
    code = {cid: a for a, cid in enumerate(cids)}
    arrays = network.arrays
    index = arrays.label_index
    known = [(index[u], code[cid]) for u, cid in p.assignment.items() if u in index]
    z = np.full(len(arrays.labels), -1, dtype=np.intp)
    if known:
        ids, codes = zip(*known)
        z[list(ids)] = codes
    nc, span = len(cids), end - start + 1

    zn = z[arrays.segment_node_ids(start, end)]
    # snapshot (0-based within the segment) of every entry of zn
    snap = np.repeat(np.arange(span), np.diff(arrays.node_offsets[start:end + 2]))
    missing = np.flatnonzero(zn < 0)
    if len(missing):
        raise ValueError(f"partition does not cover snapshot {start + snap[missing[0]]}")
    sizes = np.bincount(snap * nc + zn, minlength=span * nc).reshape(span, nc)
    pairs = np.triu(sizes.T @ sizes, 1)
    np.fill_diagonal(pairs, (sizes * (sizes - 1) // 2).sum(axis=0))

    u, v = arrays.segment_edges(start, end)
    a, b = z[u], z[v]
    edges = np.bincount(np.minimum(a, b) * nc + np.maximum(a, b), minlength=nc * nc)
    return edges.reshape(nc, nc), pairs, sizes


def segment_log_likelihood(
    network: DynamicNetwork, start: int, end: int, p: Partition
) -> float:
    """Log-likelihood of snapshots start..end under the segment's own MLE.

    Since theta is the MLE on the same counts, log 0 can only pair with a
    zero count; such terms contribute 0 and the result is always finite.
    The nonzero terms are added by the first snapshot holding both clusters
    of the pair, then by the pair's cluster ids: the order of the reference
    loop in tests/test_segment_core.py, so the float sum equals it exactly.
    """
    edges, pairs, sizes = _segment_counts(network, start, end, p)
    flat = np.flatnonzero((edges > 0) & (edges < pairs))  # a * C + b of each term
    a, b = np.divmod(flat, len(edges))
    # first snapshot holding both clusters: the smallest j with both sizes > 0
    seen = np.where(sizes > 0, np.arange(len(sizes))[:, None], len(sizes)).T
    first = np.maximum(seen[a], seen[b]).min(axis=1)
    terms = sorted(zip(
        first.tolist(), flat.tolist(), edges.ravel()[flat].tolist(), pairs.ravel()[flat].tolist()
    ))
    ll = 0.0
    for _, _, m, n in terms:
        theta = m / n
        ll += m * math.log(theta)
        ll += (n - m) * math.log(1.0 - theta)
    return ll


def log_likelihood(output: ScdOutput, network: DynamicNetwork) -> float:
    """Sum of per-segment log-likelihoods (segments are independent)."""
    total = 0.0
    for p, (start, end) in zip(output.partitions, output.segmentation()):
        total += segment_log_likelihood(network, start, end, p)
    return total


def segment_num_parameters(p: Partition) -> int:
    """Blockmodel parameters of one segment: one theta entry per cluster pair."""
    return p.num_clusters * (p.num_clusters + 1) // 2


def num_parameters(output: ScdOutput) -> int:
    """Blockmodel parameter count of a whole output, summed over its segments."""
    return sum(segment_num_parameters(p) for p in output.partitions)


def num_observations(network: DynamicNetwork) -> int:
    """Node pairs observed across all snapshots."""
    return sum(g.num_nodes * (g.num_nodes - 1) // 2 for g in network.snapshots)


def penalty_weight(n_o: int, criterion: Criterion) -> float:
    """Weight of the parameter count given n_o observed node pairs."""
    if criterion is Criterion.AIC:
        return 1.0
    if n_o == 0:
        raise ValueError("BIC undefined: network has no node pairs")
    return 0.5 * math.log(n_o)


def q_b(output: ScdOutput, network: DynamicNetwork, criterion: Criterion) -> float:
    """Penalized log-likelihood; natural logarithm throughout."""
    weight = penalty_weight(num_observations(network), criterion)
    return log_likelihood(output, network) - weight * num_parameters(output)

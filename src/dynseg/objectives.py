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
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    edge_counts: dict[tuple[int, int], int] = {}
    pair_counts: dict[tuple[int, int], int] = {}
    for j in range(start, end + 1):
        g = network[j]
        restricted = p.restrict(g.nodes)
        if len(restricted.assignment) != len(g.nodes):
            raise ValueError(f"partition does not cover snapshot {j}")
        sizes = {cid: len(m) for cid, m in restricted.clusters().items()}
        cids = sorted(sizes)
        for idx, a in enumerate(cids):
            pair_counts[(a, a)] = pair_counts.get((a, a), 0) + sizes[a] * (sizes[a] - 1) // 2
            for b in cids[idx + 1:]:
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + sizes[a] * sizes[b]
        assign = restricted.assignment
        for u, v in g.edges:
            a, b = assign[u], assign[v]
            key = (a, b) if a <= b else (b, a)
            edge_counts[key] = edge_counts.get(key, 0) + 1
    return edge_counts, pair_counts


def segment_log_likelihood(
    network: DynamicNetwork, start: int, end: int, p: Partition
) -> float:
    """Log-likelihood of snapshots start..end under the segment's own MLE.

    Since theta is the MLE on the same counts, log 0 can only pair with a
    zero count; such terms contribute 0 and the result is always finite.
    """
    edge_counts, pair_counts = _segment_counts(network, start, end, p)
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

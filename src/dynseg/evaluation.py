"""Evaluation measures: partition similarity metrics, ground-truth
similarity on the segmentation / partition / joint axes, time-point
ranking, change-point classification summaries, and a paired t-test.

All partition metrics are 1 exactly on identical groupings.  Similarity of
two solution outputs is measured by comparing derived partitions: the
time-point partition (segmentation axis), per-snapshot segment partitions
(partition axis), or the node-time partition (both axes at once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .dyngraph import DynamicNetwork, Partition, ScdOutput


class PartitionMetric(str, Enum):
    NMI = "nmi"
    AMI = "ami"
    ARI = "ari"
    VM = "vm"


# ---------------------------------------------------------------------------
# Contingency machinery
# ---------------------------------------------------------------------------

def _aligned_codes(p1: Partition, p2: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The two partitions' cluster ids of every node, nodes in sorted order."""
    if p1.domain != p2.domain:
        raise ValueError("partitions must share the same domain")
    nodes = sorted(p1.assignment)
    return tuple(
        np.array([p.assignment[u] for u in nodes], dtype=np.int64) for p in (p1, p2)
    )


def _dense(codes: np.ndarray) -> np.ndarray:
    """Codes renumbered 0, 1, ... in order of first appearance."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _contingency(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    r = int(l1.max()) + 1
    c = int(l2.max()) + 1
    table = np.zeros((r, c), dtype=np.int64)
    np.add.at(table, (l1, l2), 1)
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(table: np.ndarray, n: int) -> float:
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    mi = 0.0
    rows, cols = np.nonzero(table)
    for i, j in zip(rows, cols):
        nij = table[i, j]
        mi += (nij / n) * math.log(n * nij / (a[i] * b[j]))
    return mi


def _expected_mutual_information(table: np.ndarray, n: int) -> float:
    """Expected MI of two partitions with these marginals under the
    hypergeometric (fixed-marginals permutation) model."""
    from scipy import special  # imported here: detect never needs it; it costs 0.3 s, 25 MB

    a = table.sum(axis=1).astype(np.int64)
    b = table.sum(axis=0).astype(np.int64)
    emi = 0.0
    gln = special.gammaln
    for ai in a:
        for bj in b:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1)
            term1 = (nij / n) * np.log(n * nij / (ai * bj))
            log_prob = (
                gln(ai + 1)
                + gln(bj + 1)
                + gln(n - ai + 1)
                + gln(n - bj + 1)
                - gln(n + 1)
                - gln(nij + 1)
                - gln(ai - nij + 1)
                - gln(bj - nij + 1)
                - gln(n - ai - bj + nij + 1)
            )
            emi += float((term1 * np.exp(log_prob)).sum())
    return emi


def _information(table: np.ndarray, n: int) -> tuple[float, float, float]:
    """Entropies of the row and the column clustering, and their mutual information."""
    return (
        _entropy(table.sum(axis=1), n), _entropy(table.sum(axis=0), n),
        _mutual_information(table, n),
    )


def _vmeasure(h1: float, h2: float, mi: float) -> tuple[float, float, float]:
    hom = 1.0 if h1 == 0 else mi / h1  # 1 - H(p1|p2)/H(p1)
    com = 1.0 if h2 == 0 else mi / h2
    if hom + com == 0:
        return hom, com, 0.0
    return hom, com, 2.0 * hom * com / (hom + com)


def vmeasure_components(p1: Partition, p2: Partition) -> tuple[float, float, float]:
    """(homogeneity, completeness, v-measure) treating p1 as the reference."""
    l1, l2 = (_dense(c) for c in _aligned_codes(p1, p2))
    return _vmeasure(*_information(_contingency(l1, l2), len(l1)))


def _similarity(metric: PartitionMetric, c1: np.ndarray, c2: np.ndarray) -> float:
    """Similarity of two clusterings of the same elements, given as code arrays."""
    l1, l2 = _dense(c1), _dense(c2)
    if np.array_equal(l1, l2):
        return 1.0
    n = len(l1)
    table = _contingency(l1, l2)

    if metric is PartitionMetric.ARI:
        a = table.sum(axis=1)
        b = table.sum(axis=0)
        index = float((table * (table - 1) // 2).sum())
        sum_a = float((a * (a - 1) // 2).sum())
        sum_b = float((b * (b - 1) // 2).sum())
        pairs = n * (n - 1) / 2
        expected = sum_a * sum_b / pairs
        max_index = 0.5 * (sum_a + sum_b)
        if max_index == expected:
            return 0.0
        return (index - expected) / (max_index - expected)

    h1, h2, mi = _information(table, n)
    if metric is PartitionMetric.NMI:
        normalizer = 0.5 * (h1 + h2)
        if normalizer == 0:
            return 0.0
        return mi / normalizer

    if metric is PartitionMetric.AMI:
        if n in table.shape:
            return 0.0  # all singletons on one side: MI equals EMI exactly
        emi = _expected_mutual_information(table, n)
        denom = 0.5 * (h1 + h2) - emi
        if abs(denom) < 1e-15:
            return 0.0
        return (mi - emi) / denom

    return _vmeasure(h1, h2, mi)[2]


def partition_similarity(metric: PartitionMetric, p1: Partition, p2: Partition) -> float:
    return _similarity(metric, *_aligned_codes(p1, p2))


# ---------------------------------------------------------------------------
# Output similarity
# ---------------------------------------------------------------------------

def sim_t(o1: ScdOutput, o2: ScdOutput, metric: PartitionMetric) -> float:
    """Similarity of the time-point partitions: snapshots grouped by segment."""
    if o1.k != o2.k:
        raise ValueError("outputs cover different numbers of snapshots")
    t = np.arange(o1.k)
    return _similarity(
        metric, *(np.searchsorted(o.change_points.points, t, side="right") for o in (o1, o2))
    )


def _code_rows(output: ScdOutput, index: dict[str, int]) -> Iterator[np.ndarray]:
    """For each snapshot, the covering partition's cluster code of every id,
    -1 where it has none; codes are distinct across segments."""
    codes: dict[tuple[int, int], int] = {}
    for s, (p, (start, end)) in enumerate(zip(output.partitions, output.segmentation())):
        row = np.full(len(index), -1, dtype=np.int64)
        for u, cid in p.assignment.items():
            if u in index:
                row[index[u]] = codes.setdefault((s, cid), len(codes))
        yield from [row] * (end - start + 1)


def _snapshot_codes(
    o1: ScdOutput, o2: ScdOutput, network: DynamicNetwork | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per snapshot, the ids scored there and both outputs' cluster codes on them.

    The ids are the snapshot's nodes when the network is given, else the
    nodes both covering partitions hold; both outputs must cover them.
    """
    if o1.k != o2.k:
        raise ValueError("outputs cover different numbers of snapshots")
    if network is None:
        labels = sorted(set().union(*(p.assignment for p in o1.partitions + o2.partitions)))
        index = {u: i for i, u in enumerate(labels)}
    else:
        index = network.label_index
    for j, (r1, r2) in enumerate(zip(_code_rows(o1, index), _code_rows(o2, index))):
        ids = (
            np.flatnonzero((r1 >= 0) & (r2 >= 0)) if network is None
            else network.segment_node_ids(j, j)
        )
        if (r1[ids] < 0).any() or (r2[ids] < 0).any():
            raise ValueError(f"an output misses a node of snapshot {j}")
        yield ids, r1[ids], r2[ids]


def sim_p(
    o1: ScdOutput,
    o2: ScdOutput,
    metric: PartitionMetric,
    network: DynamicNetwork | None = None,
) -> float:
    """Mean per-snapshot similarity of the covering segment partitions.

    Both partitions are restricted to the snapshot's node set when the
    network is provided, else to their common domain; a snapshot with no
    node to score counts 1.
    """
    total = 0.0
    for _, c1, c2 in _snapshot_codes(o1, o2, network):
        total += _similarity(metric, c1, c2)
    return total / o1.k


def sim_b(
    o1: ScdOutput,
    o2: ScdOutput,
    metric: PartitionMetric,
    network: DynamicNetwork | None = None,
) -> float:
    """Similarity of the node-time partitions: (node, snapshot) pairs grouped
    by segment and cluster there, over the pairs sim_p scores."""
    ids, c1, c2 = (np.concatenate(c) for c in zip(*_snapshot_codes(o1, o2, network)))
    if not len(ids):
        raise ValueError("empty node-time domain")
    order = np.argsort(ids, kind="stable")  # node by node, each in time order
    return _similarity(metric, c1[order], c2[order])


# ---------------------------------------------------------------------------
# Time-point ranking and change-point classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimePointRanking:
    """Score per candidate time point t in [1, k-1]; lower ranks higher."""

    scores: dict[int, float]
    k: int

    def __post_init__(self):
        expected = set(range(1, self.k))
        if set(self.scores) != expected:
            raise ValueError("ranking must cover every t in [1, k-1]")

    def ordered(self) -> list[int]:
        """Time points from most to least change-point-like; ties by smaller t."""
        return sorted(self.scores, key=lambda t: (self.scores[t], t))


def ranking_from_cscd(table) -> TimePointRanking:
    """Score each time point by the smallest segment count whose solution uses it."""
    scores = {t: float(table.k) for t in range(1, table.k)}
    for l in sorted(table.entries, reverse=True):  # smaller l overwrite larger
        for t in table.entries[l].output.change_points.points:
            scores[t] = float(l)
    return TimePointRanking(scores, table.k)


@dataclass(frozen=True)
class ClassificationScores:
    aupr: float
    max_f: float
    auroc: float


def classification_positives(truth: ScdOutput | Sequence[int], k: int) -> set[int]:
    """The true change points of ``truth`` on 1 .. k-1.

    Raises ``ValueError`` unless the classification can score them: it needs
    at least one true change point and one true non-change point.
    """
    if isinstance(truth, ScdOutput):
        positives = set(truth.change_points.points)
    else:
        positives = set(int(t) for t in truth)
    if not positives or positives >= set(range(1, k)):
        raise ValueError(
            "classification needs at least one true change point and one true non-change point"
        )
    return positives


def change_point_classification(
    ranking: TimePointRanking, truth: ScdOutput | Sequence[int]
) -> ClassificationScores:
    """Sweep the ranked candidates top-1 .. top-(k-1) against the true points."""
    k = ranking.k
    positives = classification_positives(truth, k)
    candidates = ranking.ordered()
    num_pos = len(positives)
    num_neg = (k - 1) - num_pos

    aupr = max_f = auroc = 0.0
    tp, prev_recall, prev_fpr = 0, 0.0, 0.0
    for i, t in enumerate(candidates, start=1):
        if t in positives:
            tp += 1
        precision = tp / i
        recall = tp / num_pos
        fpr = (i - tp) / num_neg
        if precision + recall > 0:
            max_f = max(max_f, 2 * precision * recall / (precision + recall))
        aupr += (recall - prev_recall) * precision
        auroc += (fpr - prev_fpr) * (recall + prev_recall) / 2.0
        prev_recall, prev_fpr = recall, fpr
    return ClassificationScores(aupr=aupr, max_f=max_f, auroc=auroc)


# ---------------------------------------------------------------------------
# Paired t-test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TTestResult:
    statistic: float
    p_value: float
    degenerate: bool = False


def paired_t_test(xs: Sequence[float], ys: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on index-matched samples.

    Zero-variance differences are degenerate: all-zero differences give
    p = 1, a constant nonzero difference is flagged and reported as p = 0.
    """
    if len(xs) != len(ys):
        raise ValueError("paired samples must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two pairs")
    diffs = np.asarray(xs, dtype=float) - np.asarray(ys, dtype=float)
    sd = float(diffs.std(ddof=1))
    mean = float(diffs.mean())
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(statistic=0.0, p_value=1.0)
        return TTestResult(
            statistic=math.copysign(math.inf, mean), p_value=0.0, degenerate=True
        )
    from scipy import special

    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(special.stdtr(n - 1, -abs(t)))  # Student t CDF at -|t|
    return TTestResult(statistic=t, p_value=p)

"""Evaluation measures: partition similarity metrics, ground-truth
similarity on the segmentation / partition / joint axes, time-point
ranking, change-point classification summaries, and a paired t-test.

All partition metrics are 1 exactly on identical groupings.  Similarity of
two solution outputs is measured by comparing derived partitions: the
time-point partition (segmentation axis), per-snapshot segment partitions
(partition axis), or the node-time partition (both axes at once).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .dyngraph import DynamicNetwork, ScdOutput, dense_codes


class PartitionMetric(str, Enum):
    NMI = "nmi"
    AMI = "ami"
    ARI = "ari"
    VM = "vm"


# ---------------------------------------------------------------------------
# Contingency machinery
# ---------------------------------------------------------------------------

def _contingency(l1: np.ndarray, l2: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Counts of each code pair, element i counting ``weights[i]`` times."""
    table = np.zeros((int(l1.max()) + 1, int(l2.max()) + 1), dtype=np.int64)
    np.add.at(table, (l1, l2), 1 if weights is None else weights)
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
    hypergeometric (fixed-marginals permutation) model (Vinh, Epps & Bailey,
    JMLR 2010): one cluster of the side with fewer at a time, against every
    cluster of the other at once."""
    a, b = sorted((table.sum(axis=1), table.sum(axis=0)), key=len)
    lf = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)  # lf[i] = log(i!)
    emi = 0.0
    for ai in a.tolist():
        lo, hi = np.maximum(1, ai + b - n), np.minimum(ai, b)
        runs = np.maximum(hi - lo + 1, 0)
        bj = np.repeat(b, runs)
        nij = np.repeat(lo - np.cumsum(runs) + runs, runs) + np.arange(runs.sum())
        term1 = (nij / n) * np.log(n * nij / (ai * bj))
        log_prob = (
            lf[ai] + lf[bj] + lf[n - ai] + lf[n - bj] - lf[n]
            - lf[nij] - lf[ai - nij] - lf[bj - nij] - lf[n - ai - bj + nij]
        )
        emi += float((term1 * np.exp(log_prob)).sum())
    return emi


def _information(table: np.ndarray, n: int) -> tuple[float, float, float]:
    """Entropies of the row and the column clustering, and their mutual information."""
    return (
        _entropy(table.sum(axis=1), n), _entropy(table.sum(axis=0), n),
        _mutual_information(table, n),
    )


def _similarity(
    metric: PartitionMetric, c1: np.ndarray, c2: np.ndarray, weights: np.ndarray | None = None
) -> float:
    """Similarity of two clusterings of the same elements, given as code
    arrays, element i standing for ``weights[i]`` elements if given."""
    l1, l2 = dense_codes(c1), dense_codes(c2)
    if np.array_equal(l1, l2):
        return 1.0
    table = _contingency(l1, l2, weights)
    n = int(table.sum())

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

    hom = 1.0 if h1 == 0 else mi / h1  # 1 - H(c1|c2)/H(c1)
    com = 1.0 if h2 == 0 else mi / h2
    if hom + com == 0:
        return 0.0
    return 2.0 * hom * com / (hom + com)


# ---------------------------------------------------------------------------
# Output similarity
# ---------------------------------------------------------------------------

def _overlaps(o1: ScdOutput, o2: ScdOutput) -> list[tuple[int, int, int, int]]:
    """Overlaps of a segment of each output, in time order: the first and
    past-the-last snapshot, and both segments' indices."""
    if o1.k != o2.k:
        raise ValueError("outputs cover different numbers of snapshots")
    points1, points2 = o1.change_points, o2.change_points
    starts = sorted({0, *points1, *points2}) + [o1.k]
    return [
        (lo, hi, bisect.bisect_right(points1, lo), bisect.bisect_right(points2, lo))
        for lo, hi in zip(starts, starts[1:])
    ]


def sim_t(o1: ScdOutput, o2: ScdOutput, metric: PartitionMetric) -> float:
    """Similarity of the time-point partitions: snapshots grouped by segment,
    each overlap of two segments weighted by the snapshots it spans."""
    lo, hi, s1, s2 = np.array(_overlaps(o1, o2)).T
    return _similarity(metric, s1, s2, hi - lo)


def _code_rows(output: ScdOutput, index: dict[str, int]) -> list[np.ndarray]:
    """For each segment, its partition's cluster code of every id, -1 where
    it has none; codes are distinct across segments."""
    rows, offset = [], 0
    for p in output.partitions:
        row = p.codes_by_id(index)
        row[row >= 0] += offset
        offset += p.num_clusters
        rows.append(row)
    return rows


def _scored_runs(
    o1: ScdOutput, o2: ScdOutput, network: DynamicNetwork | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Runs of snapshots scored alike, in time order: the ids scored there,
    both outputs' cluster codes on them, and the run's snapshot count.

    With the network each snapshot is a run, scored on its nodes, which both
    outputs must cover.  Without it a run is the overlap of two segments,
    scored on the nodes both covering partitions hold.
    """
    overlaps = _overlaps(o1, o2)
    if network is None:
        labels = sorted(set().union(*(p.labels for p in o1.partitions + o2.partitions)))
        index = {u: i for i, u in enumerate(labels)}
    else:
        index = network.label_index
    rows1, rows2 = _code_rows(o1, index), _code_rows(o2, index)
    for lo, hi, s1, s2 in overlaps:
        r1, r2 = rows1[s1], rows2[s2]
        if network is None:
            ids = np.flatnonzero((r1 >= 0) & (r2 >= 0))
            yield ids, r1[ids], r2[ids], hi - lo
        else:
            for j in range(lo, hi):
                ids = network.segment_node_ids(j, j)
                if (r1[ids] < 0).any() or (r2[ids] < 0).any():
                    raise ValueError(f"an output misses a node of snapshot {j}")
                yield ids, r1[ids], r2[ids], 1


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
    for _, c1, c2, count in _scored_runs(o1, o2, network):
        s = _similarity(metric, c1, c2)
        for _ in range(count):  # one addition per snapshot; count * s rounds otherwise
            total += s
    return total / o1.k


def sim_b(
    o1: ScdOutput,
    o2: ScdOutput,
    metric: PartitionMetric,
    network: DynamicNetwork | None = None,
) -> float:
    """Similarity of the node-time partitions: (node, snapshot) pairs grouped
    by segment and cluster there, over the pairs sim_p scores."""
    ids, c1, c2, counts = zip(*_scored_runs(o1, o2, network))
    weights = np.repeat(counts, [len(i) for i in ids])  # snapshots per (node, run)
    ids, c1, c2 = (np.concatenate(c) for c in (ids, c1, c2))
    if not len(ids):
        raise ValueError("empty node-time domain")
    order = np.argsort(ids, kind="stable")  # node by node, each in time order
    return _similarity(metric, c1[order], c2[order], weights[order])


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
        for t in table.entries[l].output.change_points:
            scores[t] = float(l)
    return TimePointRanking(scores, table.k)


@dataclass(frozen=True)
class ClassificationScores:
    aupr: float
    max_f: float
    auroc: float


def classification_positives(true_points: Sequence[int], k: int) -> set[int]:
    """The true change points as a set, on 1 .. k-1.

    Raises ``ValueError`` unless the classification can score them: it needs
    at least one true change point and one true non-change point.
    """
    positives = set(int(t) for t in true_points)
    if not positives or positives >= set(range(1, k)):
        raise ValueError(
            "classification needs at least one true change point and one true non-change point"
        )
    return positives


def change_point_classification(
    ranking: TimePointRanking, true_points: Sequence[int]
) -> ClassificationScores:
    """Sweep the ranked candidates top-1 .. top-(k-1) against the true points."""
    k = ranking.k
    positives = classification_positives(true_points, k)
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


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction 1/(1 + d1/(1 + d2/(1 + ...))) of I_x(a, b) by
    the modified Lentz method (Numerical Recipes, 6.4); it converges fast
    for x < (a + 1)/(a + b + 2), and gives NaN if it does not converge."""
    c, d, h = math.inf, 1.0, 1.0
    for i in range(1, 20_000):
        m = i // 2
        if i % 2:
            coef = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            coef = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / ((1.0 + coef * d) or 1e-300)
        c = (1.0 + coef / c) or 1e-300
        h *= c * d
        if abs(c * d - 1.0) < 3e-16:
            return h
    return math.nan


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's T on df degrees of freedom: the regularized
    incomplete beta I_x(df/2, 1/2) at x = df/(df + t^2).

    Its complement I_y(1/2, df/2), y = t^2/(df + t^2), is taken where the
    fraction of I_x converges slowly; y is computed as such, never as 1 - x.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    beta = math.pi if df % 2 else 2.0  # B(df/2, 1/2), by B(a + 1, 1/2) = B(a, 1/2) 2a/(2a + 1)
    for d in range(2 - df % 2, df, 2):
        beta *= d / (d + 1)
    a, b = df / 2, 0.5
    log_front = -a * math.log1p(t2 / df) - b * math.log1p(df / t2) - math.log(beta)
    if df / (df + t2) < (a + 1) / (a + b + 2):
        return math.exp(log_front - math.log(a) + math.log(_beta_fraction(a, b, df / (df + t2))))
    return 1.0 - math.exp(log_front - math.log(b)) * _beta_fraction(b, a, t2 / (df + t2))


def paired_t_test(xs: Sequence[float], ys: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on index-matched samples.

    Zero-variance differences are degenerate: all-zero differences give
    p = 1, a constant nonzero difference is flagged and reported as p = 0.
    Non-finite samples raise ``ValueError``.
    """
    if len(xs) != len(ys):
        raise ValueError("paired samples must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two pairs")
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("paired samples must be finite")
    diffs = x - y
    sd = float(diffs.std(ddof=1))
    mean = float(diffs.mean())
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(statistic=0.0, p_value=1.0)
        return TTestResult(
            statistic=math.copysign(math.inf, mean), p_value=0.0, degenerate=True
        )
    t = mean / (sd / math.sqrt(n))
    return TTestResult(statistic=t, p_value=_t_two_sided_p(t, n - 1))

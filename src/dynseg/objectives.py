"""Per-segment objective terms, which the search adds up over a segmentation.

Two families:

* partition-accuracy scores: a static fit measure per snapshot
  (modularity, or one of three loss-like measures entered as 1 - loss);
* model-selection scores: the stochastic-blockmodel log-likelihood of the
  segment given its partition, penalized per AIC or BIC.

Every per-snapshot quantity restricts the segment partition to the nodes
actually present in that snapshot.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .dyngraph import DynamicNetwork, Partition, ScdOutput


class FitMeasure(str, Enum):
    MODULARITY = "modularity"
    CONDUCTANCE = "conductance"
    NORMALIZED_CUT = "ncut"
    AVERAGE_ODF = "avgodf"


class Criterion(str, Enum):
    AIC = "aic"
    BIC = "bic"


def _segment_clusters(
    network: DynamicNetwork, start: int, end: int, p: Partition
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cluster coding of snapshots start..end under p, from the id arrays.

    Cluster a is code a of p; labels of p outside the network are ignored.
    Returns the code of every label id (-1 where p has none), the code and
    the snapshot (0-based within the segment) of every entry of the
    segment's node slice, and the cluster sizes, one row per snapshot.
    Raises if p misses a node of some snapshot.
    """
    z = p.codes_by_id(network.label_index)
    nc, span = p.num_clusters, end - start + 1

    zn = z[network.segment_node_ids(start, end)]
    snap = np.repeat(np.arange(span), np.diff(network.node_offsets[start:end + 2]))
    missing = np.flatnonzero(zn < 0)
    if len(missing):
        raise ValueError(f"partition does not cover snapshot {start + snap[missing[0]]}")
    sizes = np.bincount(snap * nc + zn, minlength=span * nc).reshape(span, nc)
    return z, zn, snap, sizes


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right."""
    if not terms.shape[1]:
        return np.zeros(len(terms))
    return np.cumsum(terms, axis=1)[:, -1]


def snapshot_fit(
    fit: FitMeasure, network: DynamicNetwork, start: int, end: int, p: Partition
) -> list[float]:
    """Fit of p on each snapshot start..end, in time order; larger is better.

    Modularity is Newman-Girvan's; the loss-like measures enter as 1 - loss.
    Conductance per cluster is b_c / (2 m_c + n_c); normalized cut adds the
    complementary term b_c / (2 (m - m_c) + n_c); average-ODF averages each
    node's fraction of neighbours outside its cluster, a degree-0 node
    counting 0.  A loss is the mean over the clusters present in the
    snapshot.  A snapshot without edges has modularity 0 and loss 0.
    Cluster terms are added in code order, so no value depends on string
    hashing.
    """
    z, zn, snap, sizes = _segment_clusters(network, start, end, p)
    span, nc = sizes.shape
    u, v = network.segment_edges(start, end)
    m = np.diff(network.edge_offsets[start:end + 2])
    esnap = np.repeat(np.arange(span), m)
    a, b = z[u], z[v]
    cut = a != b

    def per_cluster(s, c, weights=None):
        return np.bincount(s * nc + c, weights, minlength=span * nc).reshape(span, nc)

    m_c = per_cluster(esnap[~cut], a[~cut])
    b_c = per_cluster(esnap[cut], a[cut]) + per_cluster(esnap[cut], b[cut])
    has_edges = m > 0
    m_col = np.maximum(m, 1)[:, None]  # edgeless rows are replaced below
    if fit is FitMeasure.MODULARITY:
        q = _row_sums(m_c / m_col - ((2 * m_c + b_c) / (2.0 * m_col)) ** 2)
        return np.where(has_edges, q, 0.0).tolist()

    present = sizes > 0
    if fit is FitMeasure.AVERAGE_ODF:
        # each edge end's position in the node slice, by (snapshot, id) key
        width = len(network.labels)
        keys = snap * width + network.segment_node_ids(start, end)
        ends = np.concatenate([
            np.searchsorted(keys, esnap * width + u), np.searchsorted(keys, esnap * width + v)
        ])
        deg = np.bincount(ends, minlength=len(keys))
        outside = np.bincount(ends[np.tile(cut, 2)], minlength=len(keys))
        odf = np.divide(outside, deg, out=np.zeros(len(keys)), where=deg > 0)
        acc = per_cluster(snap, zn, odf)  # added in node-id order
        terms = np.divide(acc, sizes, out=np.zeros(sizes.shape), where=present)
    else:
        terms = np.divide(b_c, 2.0 * m_c + sizes, out=np.zeros(sizes.shape), where=present)
        if fit is FitMeasure.NORMALIZED_CUT:
            other = np.divide(
                b_c, 2.0 * (m[:, None] - m_c) + sizes, out=np.zeros(sizes.shape), where=present
            )
            terms = np.stack([terms, other], axis=2).reshape(span, 2 * nc)
    n_clusters = present.sum(axis=1)
    loss = np.divide(_row_sums(terms), n_clusters, out=np.zeros(span), where=has_edges)
    return (1.0 - loss).tolist()


# ---------------------------------------------------------------------------
# Blockmodel likelihood and information criteria
# ---------------------------------------------------------------------------

def _segment_counts(
    network: DynamicNetwork, start: int, end: int, p: Partition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blockmodel counts of snapshots start..end under p, from the id arrays.

    Returns the C x C edge and node-pair counts, upper triangular (a <= b),
    and the per-snapshot cluster sizes, all coded as by _segment_clusters.
    """
    z, _, _, sizes = _segment_clusters(network, start, end, p)
    nc = sizes.shape[1]
    pairs = np.triu(sizes.T @ sizes, 1)
    np.fill_diagonal(pairs, (sizes * (sizes - 1) // 2).sum(axis=0))

    u, v = network.segment_edges(start, end)
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


# The library does not call this; bench/tracing.py wraps it by name.
def log_likelihood(output: ScdOutput, network: DynamicNetwork) -> float:
    """Sum of per-segment log-likelihoods (segments are independent)."""
    total = 0.0
    for p, (start, end) in zip(output.partitions, output.segmentation()):
        total += segment_log_likelihood(network, start, end, p)
    return total


def segment_num_parameters(p: Partition) -> int:
    """Blockmodel parameters of one segment: one theta entry per cluster pair."""
    return p.num_clusters * (p.num_clusters + 1) // 2


def num_observations(network: DynamicNetwork) -> int:
    """Node pairs observed across all snapshots."""
    n = np.diff(network.node_offsets)
    return int((n * (n - 1) // 2).sum())


def penalty_weight(n_o: int, criterion: Criterion) -> float:
    """Weight of the parameter count given n_o observed node pairs."""
    if criterion is Criterion.AIC:
        return 1.0
    if n_o == 0:
        raise ValueError("BIC undefined: network has no node pairs")
    return 0.5 * math.log(n_o)

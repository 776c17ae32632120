"""Search over change point sets.

All three strategies fill a table with one best output per possible number
of segments; the final solution is the table entry maximizing a penalized
likelihood criterion.  Segment partitions and additive segment scores are
memoized by (start, end), so the number of consensus-clustering calls is
exactly the number of distinct segments evaluated: (k^2+k)/2 for the
exhaustive dynamic program, at most that for top-down splitting, and at
most 4k-5 for bottom-up merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import objectives
from .consensus import ConsensusSpec, segment_partition
from .dyngraph import ChangePointSet, DynamicNetwork, Partition, ScdOutput
from .objectives import Criterion, ObjectiveSpec
from .static_cluster import ClustererSpec

STRATEGIES = ("exhaustive", "topdown", "bottomup")


def default_consensus() -> ConsensusSpec:
    return ConsensusSpec("sum-graph", ClustererSpec("walktrap"))


@dataclass(frozen=True)
class SearchSpec:
    strategy: str = "bottomup"
    objective: ObjectiveSpec = field(default_factory=lambda: ObjectiveSpec.qb(Criterion.BIC))
    selection: Criterion = Criterion.BIC
    consensus: ConsensusSpec = field(default_factory=default_consensus)
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown search strategy {self.strategy!r}")


@dataclass(frozen=True)
class CscdEntry:
    """Best output found with exactly this number of segments."""

    output: ScdOutput
    score: float  # per-l objective, user-facing normalization
    log_likelihood: float
    num_parameters: int


@dataclass
class CscdTable:
    entries: dict[int, CscdEntry]
    consensus_calls: int
    num_observations: int
    objective: ObjectiveSpec

    @property
    def k(self) -> int:
        return max(self.entries)

    def entry(self, l: int) -> CscdEntry:
        if l not in self.entries:
            raise ValueError(f"no table entry for l={l} (valid: 1..{self.k})")
        return self.entries[l]

    def selection_score(self, l: int, criterion: Criterion) -> float:
        e = self.entry(l)
        weight = objectives.penalty_weight(self.num_observations, criterion)
        return e.log_likelihood - weight * e.num_parameters

    def select(self, criterion: Criterion) -> int:
        """Number of segments maximizing the criterion; ties prefer fewer."""
        best_l, best = None, None
        for l in sorted(self.entries):
            s = self.selection_score(l, criterion)
            if best is None or s > best:
                best_l, best = l, s
        return best_l


@dataclass
class _Segment:
    """Memoized terms of one segment: its consensus partition, additive
    score, blockmodel log-likelihood (None until needed) and parameter count."""

    partition: Partition
    score: float
    log_likelihood: float | None
    num_parameters: int


class _SegmentScorer:
    """The one place a segment's terms are computed, memoized by (start, end).

    The per-segment score composes additively across a segmentation: for
    fit-based objectives it is the plain sum of per-snapshot fits (the 1/k
    normalization is constant per network and argmax-invariant); for
    criterion-based objectives it is the segment log-likelihood minus the
    penalty weight times the segment's parameter count.  Fit objectives
    need the log-likelihood only for segments that end up in table entries,
    so there it is computed on first use.
    """

    def __init__(self, network: DynamicNetwork, spec: SearchSpec):
        self.network = network
        self.consensus = ConsensusSpec(
            spec.consensus.method, spec.consensus.clusterer, spec.seed
        )
        self.objective = spec.objective
        self.num_observations = objectives.num_observations(network)
        if self.objective.family == "qb":
            self.weight = objectives.penalty_weight(
                self.num_observations, self.objective.criterion
            )
        else:
            self.weight = None
        self.calls = 0
        self._memo: dict[tuple[int, int], _Segment] = {}

    def _segment(self, start: int, end: int) -> _Segment:
        key = (start, end)
        seg = self._memo.get(key)
        if seg is None:
            p = segment_partition(self.network, key, self.consensus)
            self.calls += 1
            n_par = objectives.segment_num_parameters(p)
            if self.weight is None:
                s = sum(
                    objectives.snapshot_fit(self.objective.fit, p, self.network[j])
                    for j in range(start, end + 1)
                )
                seg = _Segment(p, s, None, n_par)
            else:
                ll = objectives.segment_log_likelihood(self.network, start, end, p)
                seg = _Segment(p, ll - self.weight * n_par, ll, n_par)
            self._memo[key] = seg
        return seg

    def score(self, start: int, end: int) -> float:
        return self._segment(start, end).score

    def entry_for(self, points: tuple[int, ...]) -> CscdEntry:
        """Table entry of a change point set, summed left to right from the memo."""
        cps = ChangePointSet(points, self.network.k)
        parts: list[Partition] = []
        raw, ll, n_par = 0.0, 0.0, 0
        for start, end in cps.segmentation():
            seg = self._segment(start, end)
            if seg.log_likelihood is None:
                seg.log_likelihood = objectives.segment_log_likelihood(
                    self.network, start, end, seg.partition
                )
            parts.append(seg.partition)
            raw += seg.score
            ll += seg.log_likelihood
            n_par += seg.num_parameters
        return CscdEntry(
            output=ScdOutput(cps, tuple(parts)),
            score=raw / self.network.k if self.weight is None else raw,
            log_likelihood=ll,
            num_parameters=n_par,
        )

    def table(self, per_l_points: dict[int, tuple[int, ...]]) -> CscdTable:
        entries = {l: self.entry_for(pts) for l, pts in per_l_points.items()}
        return CscdTable(
            entries=entries,
            consensus_calls=self.calls,
            num_observations=self.num_observations,
            objective=self.objective,
        )


def exhaustive_search(network: DynamicNetwork, spec: SearchSpec) -> CscdTable:
    """Optimal table via dynamic programming over last-segment start times.

    best[i][l] scores the best l-segment solution of the first i snapshots;
    it extends best[t][l-1] with the one-segment suffix [t, i-1].  Ties keep
    the smallest last-segment start time.
    """
    scorer = _SegmentScorer(network, spec)
    k = network.k
    best: list[dict[int, float]] = [dict() for _ in range(k + 1)]
    back: list[dict[int, int]] = [dict() for _ in range(k + 1)]
    best[0][0] = 0.0
    for i in range(1, k + 1):
        for l in range(1, i + 1):
            chosen_t, chosen = None, None
            t_range = (0,) if l == 1 else range(l - 1, i)
            for t in t_range:
                if l - 1 not in best[t]:
                    continue
                cand = best[t][l - 1] + scorer.score(t, i - 1)
                if chosen is None or cand > chosen:
                    chosen_t, chosen = t, cand
            best[i][l] = chosen
            back[i][l] = chosen_t

    per_l: dict[int, tuple[int, ...]] = {}
    for l in range(1, k + 1):
        points: list[int] = []
        i, ll = k, l
        while ll > 1:
            t = back[i][ll]
            points.append(t)
            i, ll = t, ll - 1
        per_l[l] = tuple(reversed(points))
    return scorer.table(per_l)


def top_down_search(network: DynamicNetwork, spec: SearchSpec) -> CscdTable:
    """Greedy splitting from one whole-network segment down to singletons.

    Each iteration inserts the untaken time point whose split yields the
    largest objective gain; equal gains go to the smallest time point.
    """
    scorer = _SegmentScorer(network, spec)
    k = network.k
    points: list[int] = []
    per_l: dict[int, tuple[int, ...]] = {1: ()}
    scorer.score(0, k - 1)
    for l in range(2, k + 1):
        taken = set(points)
        cps = ChangePointSet(tuple(points), k)
        best_t, best_gain = None, None
        for t in range(1, k):
            if t in taken:
                continue
            start, end = cps.segmentation().segments[cps.seg_index(t)]
            gain = (
                scorer.score(start, t - 1)
                + scorer.score(t, end)
                - scorer.score(start, end)
            )
            if best_gain is None or gain > best_gain:
                best_t, best_gain = t, gain
        points.append(best_t)
        points.sort()
        per_l[l] = tuple(points)
    return scorer.table(per_l)


def bottom_up_search(network: DynamicNetwork, spec: SearchSpec) -> CscdTable:
    """Greedy merging from singleton segments up to one whole-network segment.

    Each iteration removes the change point whose merge yields the largest
    objective gain; equal gains go to the leftmost pair.
    """
    scorer = _SegmentScorer(network, spec)
    k = network.k
    points = list(range(1, k))
    per_l: dict[int, tuple[int, ...]] = {k: tuple(points)}
    for j in range(k):
        scorer.score(j, j)
    for l in range(k - 1, 0, -1):
        cps = ChangePointSet(tuple(points), k)
        segs = cps.segmentation().segments
        best_idx, best_gain = None, None
        for idx in range(len(segs) - 1):
            (s1, e1), (s2, e2) = segs[idx], segs[idx + 1]
            gain = scorer.score(s1, e2) - scorer.score(s1, e1) - scorer.score(s2, e2)
            if best_gain is None or gain > best_gain:
                best_idx, best_gain = idx, gain
        points.remove(segs[best_idx + 1][0])
        per_l[l] = tuple(points)
    return scorer.table(per_l)


_SEARCHES = {
    "exhaustive": exhaustive_search,
    "topdown": top_down_search,
    "bottomup": bottom_up_search,
}


def build_table(network: DynamicNetwork, spec: SearchSpec) -> CscdTable:
    return _SEARCHES[spec.strategy](network, spec)


def solve_cscd(network: DynamicNetwork, l: int, spec: SearchSpec) -> ScdOutput:
    """Best output with exactly l segments under the spec's strategy."""
    if not 1 <= l <= network.k:
        raise ValueError(f"l={l} out of range [1, {network.k}]")
    return build_table(network, spec).entry(l).output


def solve_scd(network: DynamicNetwork, spec: SearchSpec) -> ScdOutput:
    """Best output over all segment counts under the selection criterion."""
    table = build_table(network, spec)
    return table.entry(table.select(spec.selection)).output

"""Search over change point sets.

All three strategies fill a table with one best output per possible number
of segments; the final solution is the table entry maximizing a penalized
likelihood criterion.  A table memoizes its additive segment scores by
(start, end), and a per-network SegmentStore memoizes the partitions, so a
table's consensus_calls is exactly the number of distinct segments it
evaluated: (k^2+k)/2 for the exhaustive dynamic program, at most that for
top-down splitting, and at most 4k-5 for bottom-up merging.  Tables built
under several objectives on one store cluster each shared segment once.
The exhaustive program fills the store with all its segments up front, in
worker processes when the store may use more than one and the segments hold
enough edges to repay starting them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial

from . import objectives
from .consensus import ConsensusSpec, segment_partition
from .dyngraph import ChangePointSet, DynamicNetwork, Partition, ScdOutput
from .objectives import Criterion, ObjectiveSpec
from .static_cluster import ClustererSpec

STRATEGIES = ("exhaustive", "topdown", "bottomup")

# Chunks per worker in a parallel fill: segments are dealt out in turn, so
# each chunk holds short and long ones, and a few chunks per worker even out
# what is left when one worker finishes early.
_CHUNKS_PER_WORKER = 4

# Edge records the missing segments of a fill must read (the sum over the
# segments of their snapshots' edge counts) before a pool starts.  Below it,
# starting the workers and sending the partitions back cost more than they
# save.  On two CPUs with sum-lpa, the cheapest clusterer, exhaustive detect
# ran faster in-process at up to about 85,000 visits (k=16, n=20) and faster
# in a pool from about 105,000 (k=12, n=50; k=18, n=20); a costlier
# clusterer only moves the break-even lower.
MIN_PARALLEL_EDGE_VISITS = 100_000


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
        return max(sorted(self.entries), key=lambda l: self.selection_score(l, criterion))


@dataclass
class _Segment:
    """A segment's consensus partition, parameter count and blockmodel
    log-likelihood (None until needed); none of them depends on the objective."""

    partition: Partition
    num_parameters: int
    log_likelihood: float | None = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, which a cpuset or
    ``taskset`` narrows, where the platform has one; else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` independent tasks under ``--jobs``: at
    most ``jobs``, capped by the task count and the usable CPUs; 1 runs them
    in-process."""
    return max(1, min(jobs, tasks, usable_cpus()))


def _segment_terms(
    network: DynamicNetwork, consensus: ConsensusSpec, start: int, end: int, with_ll: bool
) -> tuple[Partition, int, float | None]:
    """A segment's partition, parameter count and, if ``with_ll``, log-likelihood.

    Every segment draws its own derived seed, so the terms do not depend on
    which process computes them or in what order.
    """
    p = segment_partition(network, (start, end), consensus)
    ll = objectives.segment_log_likelihood(network, start, end, p) if with_ll else None
    return p, objectives.segment_num_parameters(p), ll


_worker_network: DynamicNetwork | None = None


def _init_worker(network: DynamicNetwork) -> None:
    """Pool initializer: the worker's network, inherited under fork and
    unpickled under spawn."""
    global _worker_network
    _worker_network = network


def _worker_terms(
    consensus: ConsensusSpec, with_ll: bool, chunk: list[tuple[int, int]]
) -> list[tuple[dict[str, int], int, float | None]]:
    """A worker's terms of a chunk of segments; partitions go back as assignments."""
    out = []
    for start, end in chunk:
        p, n_par, ll = _segment_terms(_worker_network, consensus, start, end, with_ll)
        out.append((p.assignment, n_par, ll))
    return out


class SegmentStore:
    """The objective-independent terms of one network's segments, memoized by
    (consensus spec with its seed, start, end).

    Tables built on one store under several objectives cluster each segment
    they share once.  ``fill`` computes many segments at once, in up to
    ``jobs`` worker processes.
    """

    def __init__(self, network: DynamicNetwork, jobs: int = 1):
        self.network = network
        self.jobs = jobs
        self._memo: dict[tuple[ConsensusSpec, int, int], _Segment] = {}

    def segment(
        self, consensus: ConsensusSpec, start: int, end: int, with_ll: bool = False
    ) -> _Segment:
        """The segment's terms; ``with_ll`` computes its log-likelihood if unset."""
        seg = self._memo.get((consensus, start, end))
        if seg is None:
            seg = _Segment(*_segment_terms(self.network, consensus, start, end, with_ll))
            self._memo[consensus, start, end] = seg
        if with_ll and seg.log_likelihood is None:
            seg.log_likelihood = objectives.segment_log_likelihood(
                self.network, start, end, seg.partition
            )
        return seg

    def fill(
        self, consensus: ConsensusSpec, segments: list[tuple[int, int]], with_ll: bool = False
    ) -> None:
        """Compute the terms of every segment not yet in the memo.

        When the missing segments hold at least ``MIN_PARALLEL_EDGE_VISITS``
        edge records and more than one worker may run, a process pool opened
        for this call maps interleaved chunks of the segments; the network
        reaches the workers through the pool's initializer.
        """
        missing = [s for s in segments if (consensus, *s) not in self._memo]
        offsets = self.network.edge_offsets
        visits = sum(int(offsets[end + 1] - offsets[start]) for start, end in missing)
        workers = 1
        if visits >= MIN_PARALLEL_EDGE_VISITS:
            workers = worker_count(self.jobs, len(missing))
        if workers == 1:
            for start, end in missing:
                self.segment(consensus, start, end, with_ll)
            return
        # Imported here: the import costs about 30 ms that serial runs skip.
        from concurrent.futures import ProcessPoolExecutor

        n_chunks = min(len(missing), _CHUNKS_PER_WORKER * workers)
        chunks = [missing[i::n_chunks] for i in range(n_chunks)]
        with ProcessPoolExecutor(
            workers, initializer=_init_worker, initargs=(self.network,)
        ) as pool:
            results = pool.map(partial(_worker_terms, consensus, with_ll), chunks)
            for chunk, terms in zip(chunks, results):
                for (start, end), (assignment, n_par, ll) in zip(chunk, terms):
                    self._memo[consensus, start, end] = _Segment(
                        Partition(assignment), n_par, ll
                    )


class _SegmentScorer:
    """One table's objective-dependent segment scores, memoized by (start, end).

    The per-segment score composes additively across a segmentation: for
    fit-based objectives it is the plain sum of per-snapshot fits (the 1/k
    normalization is constant per network and argmax-invariant); for
    criterion-based objectives it is the segment log-likelihood minus the
    penalty weight times the segment's parameter count.  Fit objectives
    need the log-likelihood only for segments that end up in table entries.
    """

    def __init__(
        self, network: DynamicNetwork, spec: SearchSpec, store: SegmentStore | None
    ):
        if store is None:
            store = SegmentStore(network)
        elif store.network is not network:
            raise ValueError("segment store was built for another network")
        self.store = store
        self.network = network
        self.consensus = ConsensusSpec(
            spec.consensus.method, spec.consensus.clusterer, spec.seed
        )
        self.objective = spec.objective
        self.num_observations = objectives.num_observations(network)
        self.weight = None  # fit objectives carry no penalty
        if self.objective.family == "qb":
            self.weight = objectives.penalty_weight(
                self.num_observations, self.objective.criterion
            )
        self._scores: dict[tuple[int, int], float] = {}

    def score(self, start: int, end: int) -> float:
        s = self._scores.get((start, end))
        if s is None:
            if self.weight is None:
                p = self.store.segment(self.consensus, start, end).partition
                s = sum(objectives.snapshot_fit(self.objective.fit, self.network, start, end, p))
            else:
                seg = self.store.segment(self.consensus, start, end, with_ll=True)
                s = seg.log_likelihood - self.weight * seg.num_parameters
            self._scores[start, end] = s
        return s

    def entry_for(self, points: tuple[int, ...]) -> CscdEntry:
        """Table entry of a change point set, summed left to right from the memo."""
        cps = ChangePointSet(points, self.network.k)
        parts: list[Partition] = []
        raw, ll, n_par = 0.0, 0.0, 0
        for start, end in cps.segmentation():
            raw += self.score(start, end)
            seg = self.store.segment(self.consensus, start, end, with_ll=True)
            parts.append(seg.partition)
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
            consensus_calls=len(self._scores),  # distinct segments asked for
            num_observations=self.num_observations,
            objective=self.objective,
        )


def exhaustive_search(
    network: DynamicNetwork, spec: SearchSpec, store: SegmentStore | None = None
) -> CscdTable:
    """Optimal table via dynamic programming over last-segment start times.

    best[i][l] scores the best l-segment solution of the first i snapshots;
    it extends best[t][l-1] with the one-segment suffix [t, i-1].  Ties keep
    the smallest last-segment start time.
    """
    scorer = _SegmentScorer(network, spec, store)
    k = network.k
    scorer.store.fill(
        scorer.consensus,
        [(t, i) for i in range(k) for t in range(i + 1)],
        with_ll=scorer.weight is not None,
    )
    best: list[dict[int, float]] = [{0: 0.0}] + [{} for _ in range(k)]
    back: list[dict[int, int]] = [{} for _ in range(k + 1)]
    for i in range(1, k + 1):
        for l in range(1, i + 1):
            def extend(t: int) -> float:
                return best[t][l - 1] + scorer.score(t, i - 1)

            t = max((0,) if l == 1 else range(l - 1, i), key=extend)
            best[i][l], back[i][l] = extend(t), t

    per_l: dict[int, tuple[int, ...]] = {}
    for l in range(1, k + 1):
        points, i = [], k
        for ll in range(l, 1, -1):
            i = back[i][ll]
            points.append(i)
        per_l[l] = tuple(reversed(points))
    return scorer.table(per_l)


def top_down_search(
    network: DynamicNetwork, spec: SearchSpec, store: SegmentStore | None = None
) -> CscdTable:
    """Greedy splitting from one whole-network segment down to singletons.

    Each iteration inserts the untaken time point whose split yields the
    largest objective gain; equal gains go to the smallest time point.
    """
    scorer = _SegmentScorer(network, spec, store)
    k = network.k
    points: list[int] = []
    per_l: dict[int, tuple[int, ...]] = {1: ()}
    for l in range(2, k + 1):
        cps = ChangePointSet(tuple(points), k)
        segments = cps.segmentation().segments

        def gain(t: int) -> float:
            start, end = segments[cps.seg_index(t)]
            return scorer.score(start, t - 1) + scorer.score(t, end) - scorer.score(start, end)

        points.append(max((t for t in range(1, k) if t not in points), key=gain))
        points.sort()
        per_l[l] = tuple(points)
    return scorer.table(per_l)


def bottom_up_search(
    network: DynamicNetwork, spec: SearchSpec, store: SegmentStore | None = None
) -> CscdTable:
    """Greedy merging from singleton segments up to one whole-network segment.

    Each iteration removes the change point whose merge yields the largest
    objective gain; equal gains go to the leftmost pair.
    """
    scorer = _SegmentScorer(network, spec, store)
    k = network.k
    points = list(range(1, k))
    per_l: dict[int, tuple[int, ...]] = {k: tuple(points)}
    for l in range(k - 1, 0, -1):
        cps = ChangePointSet(tuple(points), k)
        segs = cps.segmentation().segments

        def gain(idx: int) -> float:
            (s1, e1), (s2, e2) = segs[idx], segs[idx + 1]
            return scorer.score(s1, e2) - scorer.score(s1, e1) - scorer.score(s2, e2)

        points.remove(segs[max(range(len(segs) - 1), key=gain) + 1][0])
        per_l[l] = tuple(points)
    return scorer.table(per_l)


_SEARCHES = {
    "exhaustive": exhaustive_search,
    "topdown": top_down_search,
    "bottomup": bottom_up_search,
}


def build_table(
    network: DynamicNetwork, spec: SearchSpec, store: SegmentStore | None = None
) -> CscdTable:
    """The spec's table; pass one store to share segment terms across objectives."""
    return _SEARCHES[spec.strategy](network, spec, store)


def solve_cscd(network: DynamicNetwork, l: int, spec: SearchSpec) -> ScdOutput:
    """Best output with exactly l segments under the spec's strategy."""
    if not 1 <= l <= network.k:
        raise ValueError(f"l={l} out of range [1, {network.k}]")
    return build_table(network, spec).entry(l).output


def solve_scd(network: DynamicNetwork, spec: SearchSpec) -> ScdOutput:
    """Best output over all segment counts under the selection criterion."""
    table = build_table(network, spec)
    return table.entry(table.select(spec.selection)).output

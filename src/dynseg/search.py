"""Search over segmentations: tuples of (start, end) snapshot ranges.

``build_table`` is the one entry point: it reads the strategy from
``SearchSpec.strategy`` alone, whose search returns one best segmentation
per possible number of segments, and the table holds each as an output;
the final solution is the table entry maximizing a penalized likelihood
criterion.  A table memoizes its additive segment scores by (start, end),
and a per-network SegmentStore memoizes the partitions, so a table's
consensus_calls is exactly the number of distinct segments it evaluated:
(k^2+k)/2 for the exhaustive dynamic program, at most that for top-down
splitting, and at most 4k-5 for bottom-up merging.  Tables built under
several objectives on one store cluster each shared segment once.  The
exhaustive program fills the store with all its segments up front, in
worker processes when the store may use more than one and the segments
hold enough edges to repay starting them; a table whose peak would
outgrow ``EXHAUSTIVE_MAX_STORE_BYTES`` is refused before that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

from . import objectives
from .consensus import Consensus, segment_partition
from .dyngraph import DynamicNetwork, Partition, ScdOutput
from .objectives import Criterion, FitMeasure

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

# An exhaustive table holds (k^2+k)/2 entries in each of its store, score
# memo, best/back dicts and per-l segment lists.  The tracemalloc peak of
# build_table (sum-lpa, BIC, one process) was 730 B per segment at 2 nodes
# and k=256 (793 at k=512, where indices above 256 are int objects), 882 B at
# 10 nodes, 1.5 KB at 50 and 4.0 KB at 200: about 850 B plus 16 B per node
# (a partition's code array and label tuple).  The bound counts every node
# of the network in every segment.  A larger table is rejected with a
# ValueError, which the command line reports as exit 1; at 50 nodes the limit
# falls near k = 1,140, and on a 2-node network near k = 1,560.
EXHAUSTIVE_MAX_STORE_BYTES = 1 << 30
_SEGMENT_BYTES, _LABEL_BYTES = 850, 16

# A search's result: one segmentation, (start, end) ranges in time order, per l.
_PerL = dict[int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class SearchSpec:
    """The search strategy, the per-segment objective (a fit measure or a
    criterion), the consensus method with its clusterer, and the one seed
    that every random choice of the search derives from."""

    strategy: str = "bottomup"
    objective: FitMeasure | Criterion = Criterion.BIC
    consensus: Consensus = Consensus.SUM_WALKTRAP
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown search strategy {self.strategy!r}")
        if not isinstance(self.objective, (FitMeasure, Criterion)):
            raise ValueError(f"objective {self.objective!r} is not a FitMeasure or Criterion")
        if not isinstance(self.consensus, Consensus):
            raise ValueError(f"consensus {self.consensus!r} is not a Consensus")

    @property
    def selection(self) -> Criterion:
        """The criterion that chooses the segment count: the objective itself
        when it is one, else BIC."""
        return self.objective if isinstance(self.objective, Criterion) else Criterion.BIC


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
    objective: FitMeasure | Criterion

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
    network: DynamicNetwork, consensus: Consensus, seed: int, start: int, end: int,
    with_ll: bool,
) -> _Segment:
    """A segment's partition, parameter count and, if ``with_ll``, log-likelihood.

    Every segment draws its own derived seed, so the terms do not depend on
    which process computes them or in what order.
    """
    p = segment_partition(network, (start, end), consensus, seed)
    ll = objectives.segment_log_likelihood(network, start, end, p) if with_ll else None
    return _Segment(p, objectives.segment_num_parameters(p), ll)


_worker_network: DynamicNetwork | None = None


def _init_worker(network: DynamicNetwork) -> None:
    """Pool initializer: the worker's network, inherited under fork and
    unpickled under spawn."""
    global _worker_network
    _worker_network = network


def _worker_terms(
    consensus: Consensus, seed: int, with_ll: bool, chunk: list[tuple[int, int]]
) -> list[_Segment]:
    """A worker's terms of a chunk of segments."""
    return [_segment_terms(_worker_network, consensus, seed, *s, with_ll) for s in chunk]


class SegmentStore:
    """The objective-independent terms of one network's segments, memoized by
    (consensus, seed, start, end).

    Tables built on one store under several objectives cluster each segment
    they share once.  ``fill`` computes many segments at once, in up to
    ``jobs`` worker processes.
    """

    def __init__(self, network: DynamicNetwork, jobs: int = 1):
        self.network = network
        self.jobs = jobs
        self._memo: dict[tuple[Consensus, int, int, int], _Segment] = {}

    def segment(
        self, consensus: Consensus, seed: int, start: int, end: int, with_ll: bool = False
    ) -> _Segment:
        """The segment's terms; ``with_ll`` computes its log-likelihood if unset."""
        seg = self._memo.get((consensus, seed, start, end))
        if seg is None:
            seg = _segment_terms(self.network, consensus, seed, start, end, with_ll)
            self._memo[consensus, seed, start, end] = seg
        if with_ll and seg.log_likelihood is None:
            seg.log_likelihood = objectives.segment_log_likelihood(
                self.network, start, end, seg.partition
            )
        return seg

    def fill(
        self,
        consensus: Consensus,
        seed: int,
        segments: list[tuple[int, int]],
        with_ll: bool = False,
    ) -> None:
        """Compute the terms of every segment not yet in the memo.

        When the missing segments hold at least ``MIN_PARALLEL_EDGE_VISITS``
        edge records and more than one worker may run, a process pool opened
        for this call maps interleaved chunks of the segments; the network
        reaches the workers through the pool's initializer.
        """
        missing = [s for s in segments if (consensus, seed, *s) not in self._memo]
        offsets = self.network.edge_offsets
        visits = sum(int(offsets[end + 1] - offsets[start]) for start, end in missing)
        workers = 1
        if visits >= MIN_PARALLEL_EDGE_VISITS:
            workers = worker_count(self.jobs, len(missing))
        if workers == 1:
            for start, end in missing:
                self.segment(consensus, seed, start, end, with_ll)
            return
        # Imported here: the import costs about 30 ms that serial runs skip.
        from concurrent.futures import ProcessPoolExecutor

        n_chunks = min(len(missing), _CHUNKS_PER_WORKER * workers)
        chunks = [missing[i::n_chunks] for i in range(n_chunks)]
        with ProcessPoolExecutor(
            workers, initializer=_init_worker, initargs=(self.network,)
        ) as pool:
            results = pool.map(partial(_worker_terms, consensus, seed, with_ll), chunks)
            for chunk, segs in zip(chunks, results):
                self._memo.update(((consensus, seed, *s), seg) for s, seg in zip(chunk, segs))


class _SegmentScorer:
    """One table's objective-dependent segment scores, memoized by (start, end).

    The per-segment score composes additively across a segmentation: for
    fit-based objectives it is the plain sum of per-snapshot fits (the 1/k
    normalization is constant per network and argmax-invariant); for
    criterion-based objectives it is the segment log-likelihood minus the
    penalty weight times the segment's parameter count.  Fit objectives
    need the log-likelihood only for segments that end up in table entries.
    """

    def __init__(self, store: SegmentStore, spec: SearchSpec):
        self.store = store
        self.network = network = store.network
        self.consensus, self.seed = spec.consensus, spec.seed
        self.objective = spec.objective
        self.num_observations = objectives.num_observations(network)
        self.weight = None  # fit objectives carry no penalty
        if isinstance(self.objective, Criterion):
            self.weight = objectives.penalty_weight(self.num_observations, self.objective)
        self._scores: dict[tuple[int, int], float] = {}

    def score(self, start: int, end: int) -> float:
        s = self._scores.get((start, end))
        if s is None:
            if self.weight is None:
                p = self.store.segment(self.consensus, self.seed, start, end).partition
                s = sum(objectives.snapshot_fit(self.objective, self.network, start, end, p))
            else:
                seg = self.store.segment(self.consensus, self.seed, start, end, with_ll=True)
                s = seg.log_likelihood - self.weight * seg.num_parameters
            self._scores[start, end] = s
        return s

    def entry_for(self, segments: tuple[tuple[int, int], ...]) -> CscdEntry:
        """Table entry of a segmentation, summed left to right from the memo."""
        parts: list[Partition] = []
        raw, ll, n_par = 0.0, 0.0, 0
        for start, end in segments:
            raw += self.score(start, end)
            seg = self.store.segment(self.consensus, self.seed, start, end, with_ll=True)
            parts.append(seg.partition)
            ll += seg.log_likelihood
            n_par += seg.num_parameters
        return CscdEntry(
            output=ScdOutput(segments, tuple(parts)),
            score=raw / self.network.k if self.weight is None else raw,
            log_likelihood=ll,
            num_parameters=n_par,
        )

    def table(self, per_l: _PerL) -> CscdTable:
        entries = {l: self.entry_for(segments) for l, segments in per_l.items()}
        return CscdTable(
            entries=entries,
            consensus_calls=len(self._scores),  # distinct segments asked for
            num_observations=self.num_observations,
            objective=self.objective,
        )


def _exhaustive(scorer: _SegmentScorer) -> _PerL:
    """Optimal segmentation per l via dynamic programming over last-segment
    start times.

    best[i][l] scores the best l-segment segmentation of the first i
    snapshots; it extends best[t][l-1] with the one-segment suffix [t, i-1].
    Ties keep the smallest last-segment start time.
    """
    k = scorer.network.k
    scorer.store.fill(
        scorer.consensus,
        scorer.seed,
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

    per_l: _PerL = {}
    for l in range(1, k + 1):
        segs, i = [], k
        for ll in range(l, 0, -1):
            t = back[i][ll]
            segs.append((t, i - 1))
            i = t
        per_l[l] = tuple(reversed(segs))
    return per_l


def _top_down(scorer: _SegmentScorer) -> _PerL:
    """Greedy splitting of one segmentation, from the whole network down to
    singletons.

    Each iteration splits the segment at the time point with the largest
    objective gain; candidates run in time order, so equal gains go to the
    smallest time point.
    """
    k = scorer.network.k
    segs = [(0, k - 1)]

    def gain(split: tuple[int, int]) -> float:
        i, t = split
        start, end = segs[i]
        return scorer.score(start, t - 1) + scorer.score(t, end) - scorer.score(start, end)

    per_l: _PerL = {1: tuple(segs)}
    for l in range(2, k + 1):
        splits = ((i, t) for i, (start, end) in enumerate(segs) for t in range(start + 1, end + 1))
        i, t = max(splits, key=gain)
        start, end = segs[i]
        segs[i:i + 1] = [(start, t - 1), (t, end)]
        per_l[l] = tuple(segs)
    return per_l


def _bottom_up(scorer: _SegmentScorer) -> _PerL:
    """Greedy merging of one segmentation, from singletons up to the whole
    network.

    Each iteration replaces the adjacent pair whose merge yields the largest
    objective gain by their union; equal gains go to the leftmost pair.
    """
    k = scorer.network.k
    segs = [(t, t) for t in range(k)]

    def gain(i: int) -> float:
        (s1, e1), (s2, e2) = segs[i], segs[i + 1]
        return scorer.score(s1, e2) - scorer.score(s1, e1) - scorer.score(s2, e2)

    per_l: _PerL = {k: tuple(segs)}
    for l in range(k - 1, 0, -1):
        i = max(range(l), key=gain)
        segs[i:i + 2] = [(segs[i][0], segs[i + 1][1])]
        per_l[l] = tuple(segs)
    return per_l


_SEARCHES = {"exhaustive": _exhaustive, "topdown": _top_down, "bottomup": _bottom_up}


def build_table(
    network: DynamicNetwork, spec: SearchSpec, store: SegmentStore | None = None
) -> CscdTable:
    """The table of ``spec.strategy``; pass one store to share segment terms
    across objectives.

    An exhaustive table whose peak would exceed ``EXHAUSTIVE_MAX_STORE_BYTES``
    is rejected with a ``ValueError`` before any segment is listed.
    """
    if store is None:
        store = SegmentStore(network)
    elif store.network is not network:
        raise ValueError("segment store was built for another network")
    if spec.strategy == "exhaustive":
        segments = network.k * (network.k + 1) // 2
        size = segments * (_SEGMENT_BYTES + _LABEL_BYTES * len(network.labels))
        if size > EXHAUSTIVE_MAX_STORE_BYTES:
            raise ValueError(
                f"exhaustive search: {segments} segments over {len(network.labels)} "
                f"nodes would hold about {size / 2**30:.3g} GiB, above the limit of "
                f"{EXHAUSTIVE_MAX_STORE_BYTES} bytes (EXHAUSTIVE_MAX_STORE_BYTES)"
            )
    scorer = _SegmentScorer(store, spec)
    return scorer.table(_SEARCHES[spec.strategy](scorer))


def solve_cscd(network: DynamicNetwork, l: int, spec: SearchSpec) -> ScdOutput:
    """Best output with exactly l segments under the spec's strategy."""
    if not 1 <= l <= network.k:
        raise ValueError(f"l={l} out of range [1, {network.k}]")
    return build_table(network, spec).entry(l).output


def solve_scd(network: DynamicNetwork, spec: SearchSpec) -> ScdOutput:
    """Best output over all segment counts under the selection criterion."""
    table = build_table(network, spec)
    return table.entry(table.select(spec.selection)).output

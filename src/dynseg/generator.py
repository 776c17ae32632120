"""Synthetic dynamic networks with an embedded ground-truth solution.

Generation has four steps: sample the ground-truth change points, build a
layered partition graph describing how clusters evolve between adjacent
segments (merge, split, or continue), turn that graph into concrete segment
partitions over nodes 0..n-1, and draw every snapshot of a segment from a
stochastic blockmodel under that segment's partition (intra-cluster edge
probability c_in/n, inter-cluster c_out/n).

The partition graph carries planned cluster sizes on its edges, so every
cluster of every segment keeps at least c_min members whenever the
configuration permits, and adjacent segment partitions always differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._seeds import rng_for
from .dyngraph import ChangePointSet, DynamicNetwork, Partition, ScdOutput


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    k: int
    l: int
    n: int
    c_min: int
    c_in: float
    c_out: float
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.l <= self.k:
            raise ValueError(f"need 1 <= l <= k, got l={self.l}, k={self.k}")
        if self.c_min < 1:
            raise ValueError("c_min must be at least 1")
        if 2 * self.c_min > self.n:
            raise ValueError("need room for at least two clusters: 2*c_min <= n")
        if not 0 < self.c_in <= self.n:
            raise ValueError("c_in must be in (0, n]")
        if not 0 <= self.c_out <= self.c_in:
            raise ValueError("c_out must be in [0, c_in]")

    @property
    def max_clusters(self) -> int:
        # Bounded well below n/c_min: clusters of ~3*c_min nodes stay above
        # the modularity resolution limit of per-segment sum graphs and keep
        # enough split capacity for adjacent partitions to differ strongly.
        return min(self.n // self.c_min, max(3, self.n // (3 * self.c_min)))


@dataclass(frozen=True)
class PartitionGraph:
    """Layered cluster-evolution plan.

    Layer i has layer_sizes[i] supernodes, one per cluster of segment i.
    transitions[i] holds the directed edges from layer i to layer i+1 as
    (left, right, members) triples: each edge moves `members` nodes from
    the left cluster into the right cluster.  Every edge belongs to exactly
    one merge, split, or continuation event.
    """

    layer_sizes: tuple[int, ...]
    cluster_sizes: tuple[tuple[int, ...], ...]
    transitions: tuple[tuple[tuple[int, int, int], ...], ...]


def sample_change_points(k: int, l: int, rng: np.random.Generator) -> ChangePointSet:
    """l-1 distinct time points drawn uniformly from [1, k-1], sorted."""
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    points = rng.choice(np.arange(1, k), size=l - 1, replace=False)
    return ChangePointSet(tuple(int(t) for t in sorted(points)), k)


def _random_sizes(total: int, parts: int, c_min: int, rng: np.random.Generator) -> list[int]:
    """Split `total` into `parts` sizes, each >= c_min when total allows,
    degrading to >= 1 otherwise; the remainder lands in uniform-random parts."""
    if parts < 1 or total < parts:
        raise GenerationError(f"cannot split {total} members into {parts} parts")
    floor = c_min if total >= parts * c_min else 1
    sizes = [floor] * parts
    rest = total - floor * parts
    if rest > 0:
        picks = rng.integers(0, parts, size=rest)
        for p in picks:
            sizes[int(p)] += 1
    return sizes


def _feasible_next_sizes(sizes_prev: list[int], c_min: int, max_r: int) -> list[int]:
    """Layer sizes reachable from sizes_prev without breaking the c_min floor."""
    p = len(sizes_prev)
    caps = [s // c_min - 1 for s in sizes_prev]
    total_cap = sum(caps)
    feasible = []
    for q in range(2, max_r + 1):
        if q < p:
            feasible.append(q)
        elif q == p:
            if p >= 3 and any(c >= 1 for c in caps):
                feasible.append(q)
        else:
            if total_cap >= q - p:
                feasible.append(q)
    return feasible


_TRANSITION_RETRIES = 1000


def _split_hosts_needed(caps_desc: list[int], extras: int) -> int:
    """Fewest split hosts whose capacities cover `extras` extra pieces."""
    need = 0
    covered = 0
    for cap in caps_desc:
        if covered >= extras:
            break
        covered += cap
        need += 1
    return need if covered >= extras else len(caps_desc) + 1


def _churn_feasible(p: int, caps: list[int], extra_rights: int, extra_lefts: int) -> bool:
    if extra_rights == 0 and extra_lefts == 0:
        return True
    caps_desc = sorted((c for c in caps if c > 0), reverse=True)
    left_budget = p - extra_lefts - (1 if extra_lefts else 0)
    if extra_rights > 0:
        s_need = _split_hosts_needed(caps_desc, extra_rights)
        if s_need > min(extra_rights, left_budget):
            return False
    return left_budget >= 0


def _sample_transition(
    sizes_prev: list[int], q: int, c_min: int, rng: np.random.Generator
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Edges and planned sizes for the next layer.

    Every supernode joins exactly one merge, split, or continuation event,
    so adjacent partitions are never identical and degree conditions hold.
    Beyond the merges or splits forced by the layer size difference, a
    random churn amount adds extra split+merge pairs, biased high so that
    adjacent partitions cross rather than merely refine each other.
    """
    p = len(sizes_prev)
    caps = [s // c_min - 1 for s in sizes_prev]
    total_cap = sum(caps)
    f_min = max(0, q - p)  # extra cluster copies splits must create
    a_min = max(0, p - q)  # extra cluster members merges must absorb
    churn_lo = 1 if p == q else 0
    churn_hi = min(total_cap - f_min, p - a_min - 2)
    feasible_churn = [
        c for c in range(churn_lo, churn_hi + 1)
        if _churn_feasible(p, caps, f_min + c, a_min + c)
    ]
    if not feasible_churn:
        raise GenerationError(
            f"no valid transition from layer sizes {sizes_prev} to {q} clusters"
        )
    for _ in range(_TRANSITION_RETRIES):
        # max of two draws biases churn high without pinning it
        churn = max(
            feasible_churn[int(rng.integers(0, len(feasible_churn)))],
            feasible_churn[int(rng.integers(0, len(feasible_churn)))],
        )
        extra_rights = f_min + churn
        extra_lefts = a_min + churn

        # split events: fans sum to num_splits + extra_rights, hosts need capacity
        hosts: list[int] = []
        fans: list[int] = []
        if extra_rights > 0:
            eligible = [u for u in range(p) if caps[u] >= 1]
            s_need = _split_hosts_needed(
                sorted((caps[u] for u in eligible), reverse=True), extra_rights
            )
            s_max = min(extra_rights, len(eligible),
                        p - extra_lefts - (1 if extra_lefts else 0))
            if s_need > s_max:
                continue
            num_splits = int(rng.integers(s_need, s_max + 1))
            order = [eligible[int(i)] for i in rng.permutation(len(eligible))]
            hosts = order[:num_splits]
            spare = sorted(order[num_splits:], key=lambda u: caps[u])
            while sum(caps[u] for u in hosts) < extra_rights and spare:
                weakest = min(hosts, key=lambda u: caps[u])
                strongest = spare.pop()
                if caps[strongest] <= caps[weakest]:
                    break
                hosts[hosts.index(weakest)] = strongest
            if sum(caps[u] for u in hosts) < extra_rights:
                continue
            fans = [2] * num_splits
            room = [caps[u] - 1 for u in hosts]
            for _ in range(extra_rights - num_splits):
                open_slots = [i for i in range(num_splits) if room[i] > 0]
                slot = int(open_slots[rng.integers(0, len(open_slots))])
                fans[slot] += 1
                room[slot] -= 1

        # merge events: arities sum to num_merges + extra_lefts
        arities: list[int] = []
        if extra_lefts > 0:
            m_max = p - extra_lefts - len(hosts)
            if m_max < 1:
                continue
            num_merges = int(rng.integers(1, min(extra_lefts, m_max) + 1))
            arities = [2] * num_merges
            for _ in range(extra_lefts - num_merges):
                arities[int(rng.integers(0, num_merges))] += 1

        host_set = set(hosts)
        pool = [int(u) for u in rng.permutation(p) if int(u) not in host_set]
        events: list[tuple[list[int], int]] = [([u], f) for u, f in zip(hosts, fans)]
        pos = 0
        for a in arities:
            events.append((pool[pos: pos + a], 1))
            pos += a
        events.extend(([u], 1) for u in pool[pos:])

        right_order = [int(v) for v in rng.permutation(q)]
        edges: list[tuple[int, int, int]] = []
        sizes_next = [0] * q
        pos = 0
        for left_ids, fan in events:
            if fan == 1:
                v = right_order[pos]
                pos += 1
                for u in left_ids:
                    edges.append((u, v, sizes_prev[u]))
                    sizes_next[v] += sizes_prev[u]
            else:
                u = left_ids[0]
                vs = right_order[pos: pos + fan]
                pos += fan
                pieces = _random_sizes(sizes_prev[u], fan, c_min, rng)
                for v, piece in zip(vs, pieces):
                    edges.append((u, v, piece))
                    sizes_next[v] += piece
        edges.sort()
        return edges, sizes_next
    raise GenerationError(
        f"no valid transition from layer sizes {sizes_prev} to {q} clusters"
    )


def build_partition_graph(cfg: GeneratorConfig, rng: np.random.Generator) -> PartitionGraph:
    """Sample the layered evolution plan, one feasible transition at a time."""
    max_r = cfg.max_clusters
    r0 = int(rng.integers(2, max_r + 1))
    sizes = _random_sizes(cfg.n, r0, cfg.c_min, rng)
    layer_sizes = [r0]
    cluster_sizes = [tuple(sizes)]
    transitions: list[tuple[tuple[int, int, int], ...]] = []
    for i in range(1, cfg.l):
        feasible = _feasible_next_sizes(sizes, cfg.c_min, max_r)
        if not feasible:
            raise GenerationError(
                f"no feasible layer size after layer {i - 1} "
                f"(sizes {sizes}, c_min {cfg.c_min})"
            )
        q = int(feasible[rng.integers(0, len(feasible))])
        edges, sizes = _sample_transition(sizes, q, cfg.c_min, rng)
        layer_sizes.append(q)
        cluster_sizes.append(tuple(sizes))
        transitions.append(tuple(edges))
    return PartitionGraph(tuple(layer_sizes), tuple(cluster_sizes), tuple(transitions))


def derive_segment_partitions(
    graph: PartitionGraph, n: int, rng: np.random.Generator
) -> list[Partition]:
    """Deal node labels through the partition graph, layer by layer."""
    members: list[list[int]] = []
    order = [int(u) for u in rng.permutation(n)]
    pos = 0
    for size in graph.cluster_sizes[0]:
        members.append(order[pos: pos + size])
        pos += size
    if pos != n:
        raise GenerationError("layer sizes do not sum to n")
    partitions = [_layer_partition(members)]

    for layer, edges in enumerate(graph.transitions):
        incoming: list[list[int]] = [[] for _ in range(graph.layer_sizes[layer + 1])]
        by_left: dict[int, list[tuple[int, int]]] = {}
        for u, v, w in edges:
            by_left.setdefault(u, []).append((v, w))
        for u, outs in sorted(by_left.items()):
            pool = [members[u][int(i)] for i in rng.permutation(len(members[u]))]
            pos = 0
            for v, w in outs:
                incoming[v].extend(pool[pos: pos + w])
                pos += w
            if pos != len(pool):
                raise GenerationError("transition piece sizes do not cover cluster")
        members = incoming
        partitions.append(_layer_partition(members))
    return partitions


def _layer_partition(members: list[list[int]]) -> Partition:
    return Partition(
        {str(u): cid for cid, cluster in enumerate(members) for u in cluster}
    )


def generate_snapshots(
    output: ScdOutput, cfg: GeneratorConfig, rng: np.random.Generator
) -> DynamicNetwork:
    """Independent blockmodel draws, one per snapshot, under the segment partitions."""
    n, k = cfg.n, cfg.k
    p_in = cfg.c_in / n
    p_out = cfg.c_out / n
    iu, iv = np.triu_indices(n, k=1)
    edges: list[np.ndarray] = []
    for p, (start, end) in zip(output.partitions, output.segmentation()):
        memb = np.array([p.assignment[str(u)] for u in range(n)])
        same = memb[iu] == memb[iv]
        probs = np.where(same, p_in, p_out)
        for t in range(start, end + 1):
            hit = np.flatnonzero(rng.random(len(probs)) < probs)
            edges.append(np.column_stack([np.full(len(hit), t), iu[hit], iv[hit]]))
    # node u is labelled str(u), and every snapshot holds every node
    nodes = np.column_stack([np.repeat(np.arange(k), n), np.tile(np.arange(n), k)])
    return DynamicNetwork.from_records(k, [str(u) for u in range(n)], nodes, np.concatenate(edges))


def generate(cfg: GeneratorConfig) -> tuple[DynamicNetwork, ScdOutput]:
    """Full pipeline; a pure function of the configuration (seed included)."""
    change_points = sample_change_points(
        cfg.k, cfg.l, rng_for(cfg.seed, "change-points")
    )
    graph = build_partition_graph(cfg, rng_for(cfg.seed, "partition-graph"))
    partitions = derive_segment_partitions(graph, cfg.n, rng_for(cfg.seed, "memberships"))
    truth = ScdOutput(change_points, tuple(partitions))
    network = generate_snapshots(truth, cfg, rng_for(cfg.seed, "snapshots"))
    return network, truth

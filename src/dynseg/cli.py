"""Command-line interface.

Subcommands: detect (solve a network file), generate (synthesize a network
plus its ground truth), evaluate (compare a solution against a truth file),
rank (order time points by how change-point-like they are), and benchmark
(generate/detect/evaluate over a grid and summarize).

Reports are line-oriented key<TAB>value text.  Every command is
deterministic given its flags and seed; files written by a command carry no
volatile content, so reruns are byte-identical.  Exit codes: 0 success,
1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time

from ._seeds import derive_seed
from .consensus import ConsensusSpec
from .dyngraph import (
    FormatError,
    dump_dynamic_network,
    dump_output,
    load_dynamic_network,
    load_output,
)
from .evaluation import (
    PartitionMetric,
    change_point_classification,
    classification_positives,
    paired_t_test,
    ranking_from_cscd,
    sim_b,
    sim_p,
    sim_t,
)
from .generator import GenerationError, GeneratorConfig, generate
from .objectives import Criterion, FitMeasure, ObjectiveSpec
from .search import SearchSpec, SegmentStore, build_table, usable_cpus, worker_count
from .static_cluster import ClustererSpec

OBJECTIVES = ("bic", "aic", "modularity", "conductance", "ncut", "avgodf")
CONSENSUS_CHOICES = (
    "sum-louvain",
    "sum-walktrap",
    "sum-lpa",
    "avg-louvain",
    "cmatrix-louvain",
    "cmatrix-walktrap",
)
SEARCH_CHOICES = ("exhaustive", "topdown", "bottomup")

_FIT_BY_NAME = {
    "modularity": FitMeasure.MODULARITY,
    "conductance": FitMeasure.CONDUCTANCE,
    "ncut": FitMeasure.NORMALIZED_CUT,
    "avgodf": FitMeasure.AVERAGE_ODF,
}


def _objective_spec(name: str) -> tuple[ObjectiveSpec, Criterion]:
    """Per-l objective plus the criterion used for the final selection."""
    if name in ("bic", "aic"):
        crit = Criterion(name)
        return ObjectiveSpec.qb(crit), crit
    return ObjectiveSpec.qp(_FIT_BY_NAME[name]), Criterion.BIC


def _consensus_spec(name: str) -> ConsensusSpec:
    if name == "avg-louvain":
        return ConsensusSpec("average-louvain")
    family, _, kind = name.partition("-")
    clusterer = {
        "louvain": ClustererSpec("louvain"),
        "walktrap": ClustererSpec("walktrap"),
        "lpa": ClustererSpec("label-propagation"),
    }[kind]
    method = "sum-graph" if family == "sum" else "consensus-matrix"
    return ConsensusSpec(method, clusterer)


def _search_spec(objective: str, consensus: str, search: str, seed: int) -> SearchSpec:
    obj, selection = _objective_spec(objective)
    return SearchSpec(
        strategy=search,
        objective=obj,
        selection=selection,
        consensus=_consensus_spec(consensus),
        seed=seed,
    )


def _parse_metrics(text: str) -> list[PartitionMetric]:
    metrics = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            metrics.append(PartitionMetric(name))
        except ValueError:
            raise ValueError(f"unknown metric {name!r} (use nmi,ami,ari,vm)") from None
    if not metrics:
        raise ValueError("no metrics requested")
    return metrics


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _emit(lines: list[str], out=None) -> None:
    text = "".join(f"{line}\n" for line in lines)
    sys.stdout.write(text)
    if out:
        _write(out, text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objective", choices=OBJECTIVES, default="bic")
    p.add_argument("--consensus", choices=CONSENSUS_CHOICES, default="sum-walktrap")
    p.add_argument("--search", choices=SEARCH_CHOICES, default="bottomup")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=_positive_int, default=usable_cpus(),
        help="at most this many worker processes, capped by the task count and "
        "the CPUs this process may use; 1 runs in-process (default: those CPUs)",
    )


def _add_generator_flags(p: argparse.ArgumentParser, include_l: bool = True) -> None:
    p.add_argument("--k", type=_positive_int, default=16)
    if include_l:
        p.add_argument("--l", type=_positive_int, default=4)
    p.add_argument("--n", type=_positive_int, default=50)
    p.add_argument("--cmin", type=_positive_int, default=5)
    p.add_argument("--cin", type=float, default=20.0)
    p.add_argument("--cout", type=float, default=4.0)


def cmd_detect(args) -> int:
    with open(args.input) as fh:
        network = load_dynamic_network(fh)
    if args.segments is not None and not 1 <= args.segments <= network.k:
        raise ValueError(f"--segments {args.segments} out of range [1, {network.k}]")
    spec = _search_spec(args.objective, args.consensus, args.search, args.seed)
    started = time.perf_counter()
    table = build_table(network, spec, SegmentStore(network, args.jobs))
    chosen = args.segments if args.segments is not None else table.select(spec.selection)
    elapsed = time.perf_counter() - started
    output = table.entry(chosen).output
    output.validate_for(network)
    if args.output:
        _write(args.output, dump_output(output))
    report = [
        f"k\t{network.k}",
        f"search\t{args.search}",
        f"objective\t{args.objective}",
        f"consensus\t{args.consensus}",
        f"seed\t{args.seed}",
        f"consensus_calls\t{table.consensus_calls}",
    ]
    for l in sorted(table.entries):
        report.append(f"score_l_{l}\t{table.entries[l].score:.6f}")
    report.append(f"chosen_l\t{chosen}")
    report.append(f"wall_time\t{elapsed:.3f}")
    if args.output:
        report.append(f"output\t{args.output}")
    sys.stdout.write("\n".join(report) + "\n")
    return 0


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        k=args.k, l=args.l, n=args.n, c_min=args.cmin,
        c_in=args.cin, c_out=args.cout, seed=args.seed,
    )
    network, truth = generate(cfg)
    header = (
        f"# k={cfg.k} l={cfg.l} n={cfg.n} c_min={cfg.c_min} "
        f"c_in={cfg.c_in:g} c_out={cfg.c_out:g} seed={cfg.seed}\n"
    )
    _write(args.output, header + dump_dynamic_network(network))
    _write(args.truth, header + dump_output(truth))
    sys.stdout.write(f"network\t{args.output}\ntruth\t{args.truth}\n")
    return 0


def cmd_evaluate(args) -> int:
    with open(args.pred) as fh:
        pred = load_output(fh)
    with open(args.truth) as fh:
        truth = load_output(fh)
    if pred.k != truth.k:
        raise ValueError(f"prediction covers k={pred.k}, truth covers k={truth.k}")
    network = None
    if args.input:
        with open(args.input) as fh:
            network = load_dynamic_network(fh)
        for name, output in (("prediction", pred), ("truth", truth)):
            try:
                output.validate_for(network, exact=False)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
    metrics = _parse_metrics(args.metrics)
    lines = []
    for metric in metrics:
        lines.append(f"sim_t_{metric.value}\t{sim_t(pred, truth, metric):.6f}")
        lines.append(f"sim_p_{metric.value}\t{sim_p(pred, truth, metric, network):.6f}")
        lines.append(f"sim_b_{metric.value}\t{sim_b(pred, truth, metric, network):.6f}")
    _emit(lines, args.output)
    return 0


def cmd_rank(args) -> int:
    with open(args.input) as fh:
        network = load_dynamic_network(fh)
    truth = None
    if args.truth:
        with open(args.truth) as fh:
            truth = load_output(fh)
        if truth.k != network.k:
            raise ValueError(f"truth covers k={truth.k}, network has k={network.k}")
        classification_positives(truth, network.k)
    spec = _search_spec(args.objective, args.consensus, args.search, args.seed)
    table = build_table(network, spec, SegmentStore(network, args.jobs))
    ranking = ranking_from_cscd(table)
    lines = [f"{t}\t{int(ranking.scores[t])}" for t in ranking.ordered()]
    if truth is not None:
        scores = change_point_classification(ranking, truth)
        lines.append(f"aupr\t{scores.aupr:.6f}")
        lines.append(f"max_f\t{scores.max_f:.6f}")
        lines.append(f"auroc\t{scores.auroc:.6f}")
    _emit(lines, args.output)
    return 0


def _bench_instance(task: tuple[GeneratorConfig, list[str]]) -> list[dict]:
    """Generate one network and solve every configuration on one segment store.

    The store runs in-process: the benchmark already maps its tasks over
    worker processes, and pools must not nest.
    """
    cfg, configs = task
    network, truth = generate(cfg)
    store = SegmentStore(network)
    true_points = set(truth.change_points.points)
    metric = PartitionMetric.NMI
    rows = []
    for cfg_name in configs:
        spec = _search_spec(*cfg_name.split(":"), derive_seed(cfg.seed, "detect"))
        table = build_table(network, spec, store)
        chosen = table.select(spec.selection)
        output = table.entry(chosen).output
        row = {
            "sim_t": sim_t(output, truth, metric),
            "sim_p": sim_p(output, truth, metric, network),
            "sim_b": sim_b(output, truth, metric, network),
            "selected_l": float(chosen),
        }
        if true_points and true_points != set(range(1, cfg.k)):
            ranking = ranking_from_cscd(table)
            row["aupr"] = change_point_classification(ranking, truth).aupr
        rows.append(row)
    return rows


def cmd_benchmark(args) -> int:
    l_values = [int(x) for x in args.l_values.split(",") if x.strip()]
    if not l_values:
        raise ValueError("--l-values must name at least one segment count")
    if len(set(l_values)) < len(l_values):
        raise ValueError(f"--l-values repeats a segment count: {args.l_values}")
    configs = [f"{args.objective}:{args.consensus}:{args.search}"]
    if args.compare:
        configs = [c.strip() for c in args.compare.split(",")]
        if len(configs) != 2:
            raise ValueError("--compare takes exactly two configurations")
        for c in configs:
            fields = zip(c.split(":"), (OBJECTIVES, CONSENSUS_CHOICES, SEARCH_CHOICES))
            if c.count(":") != 2 or any(f not in choices for f, choices in fields):
                raise ValueError(f"bad configuration {c!r}; use objective:consensus:search")

    # One task per (l, instance); building its config checks l, n and c_min
    # before any worker starts.
    tasks = [
        (GeneratorConfig(
            k=args.k, l=l, n=args.n, c_min=args.cmin, c_in=args.cin,
            c_out=args.cout, seed=derive_seed(args.seed, "bench", l, idx),
        ), configs)
        for l in l_values
        for idx in range(args.instances)
    ]
    workers = worker_count(args.jobs, len(tasks))
    if workers > 1:
        # Imported here: the import costs about 30 ms that other commands skip.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(_bench_instance, tasks))
    else:
        per_task = [_bench_instance(t) for t in tasks]
    n = args.instances
    by_l = [per_task[i * n:(i + 1) * n] for i in range(len(l_values))]  # [l][instance][config]

    lines = ["config\tl\tinstances\tsim_t\tsim_p\tsim_b\tselected_l\taupr"]
    for c, cfg_name in enumerate(configs):
        for l, block in zip(l_values, by_l):
            per = [rows[c] for rows in block]
            means = {
                key: sum(r[key] for r in per) / len(per)
                for key in ("sim_t", "sim_p", "sim_b", "selected_l")
            }
            auprs = [r["aupr"] for r in per if "aupr" in r]
            aupr = f"{sum(auprs) / len(auprs):.6f}" if auprs else "n/a"
            lines.append(
                f"{cfg_name}\t{l}\t{len(per)}\t{means['sim_t']:.6f}\t"
                f"{means['sim_p']:.6f}\t{means['sim_b']:.6f}\t"
                f"{means['selected_l']:.3f}\t{aupr}"
            )
    if len(configs) == 2:
        if args.instances < 2:
            lines.append("ttest\tskipped: need at least two instances")
        else:
            for l, block in zip(l_values, by_l):
                xs, ys = ([rows[c]["sim_b"] for rows in block] for c in (0, 1))
                res = paired_t_test(xs, ys)
                flag = " degenerate" if res.degenerate else ""
                lines.append(f"ttest_sim_b\tl={l}\tp={res.p_value:.6g}{flag}")
    _emit(lines, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynseg",
        description="Segment community detection on snapshot-sequence dynamic networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="solve a network file")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--segments", type=int, help="solve with exactly this many segments")
    _add_method_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("generate", help="synthesize a network with ground truth")
    p.add_argument("--output", required=True)
    p.add_argument("--truth", required=True)
    _add_generator_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="compare a solution against a truth file")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--input", help="network file, for exact per-snapshot restriction")
    p.add_argument("--metrics", default="nmi")
    p.add_argument("--output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="rank time points by change-point-likeness")
    p.add_argument("--input", required=True)
    p.add_argument("--truth", help="truth file; adds classification scores")
    p.add_argument("--output")
    _add_method_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("benchmark", help="generate/detect/evaluate over a grid")
    p.add_argument("--l-values", default="1,2,4,8,16")
    p.add_argument("--instances", type=_positive_int, default=10)
    p.add_argument("--compare", help="two objective:consensus:search configurations")
    p.add_argument("--output")
    _add_generator_flags(p, include_l=False)
    _add_method_flags(p)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, GenerationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans recorded from outside the program, and the per-layer metrics derived from them.

A traced solve replaces module attributes of ``dynseg`` with timing
wrappers, so every call into a layer's public function becomes a span:
name, start, end, parent span and operation id.  The span stack is kept
per thread; a span opened on a thread with an empty stack (a worker of
``benchmark --jobs``) takes the operation's root span as its parent.
Spans stay in memory until the run writes them out.

A span's name is ``<layer>.<function>``, with layers named after the
modules of ``dynseg``.  Self time is a span's duration minus the part of
it that its child spans cover; children on several threads may overlap,
so the covered part is the union of their intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("dyngraph", "consensus", "static_cluster", "objectives", "search",
          "generator", "evaluation", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._op: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs_of=None):
        """``fn`` recording one span per call; ``attrs_of(*args)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _safe_attrs(attrs_of, args) if attrs_of else None
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, parent, tracer._op, start, end, attrs))

        return traced

    @contextmanager
    def operation(self, op: int):
        """Root span of one operation; spans of its worker threads attach to it."""
        self._op = op
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self._root = sid
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(Span(sid, "cli.main", None, op, start, end))
            self._op = None

    @contextmanager
    def installed(self):
        """Swap the traced module attributes in for the duration of the block."""
        saved = []
        for module_name, attr, span_name, attrs_of in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, attrs_of))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.parent, s.op, s.start, s.end, s.attrs]))
                fh.write("\n")


def _safe_attrs(attrs_of, args):
    # A changed signature must not break the traced program, only its counts.
    try:
        return attrs_of(*args)
    except (AttributeError, IndexError, TypeError, KeyError):
        return None


def _nodes(graph, *_):
    return {"nodes": len(graph.nodes)}


def _multi_nodes(graphs, *_):
    return {"nodes": len(frozenset().union(*(g.nodes for g in graphs)))}


def _edge_visits(network, start, end):
    return {"edges": sum(len(network[j].edges) for j in range(start, end + 1))}


def _segment(network, start, end, *_):
    return {"segment": [start, end]}


# (module, attribute, span name, counts).  An attribute is wrapped where the
# caller looks it up: names imported with ``from ... import`` are wrapped in
# the importing module.
TARGETS = (
    ("dynseg.cli", "load_dynamic_network", "dyngraph.load", None),
    ("dynseg.cli", "dump_output", "dyngraph.dump", None),
    ("dynseg.cli", "build_table", "search.build_table", None),
    ("dynseg.search", "segment_partition", "consensus.segment_partition", None),
    ("dynseg.consensus", "sum_graph", "consensus.sum_graph", _edge_visits),
    ("dynseg.consensus", "cluster", "static_cluster.cluster", None),
    ("dynseg.consensus", "louvain_multi", "static_cluster.louvain_multi", _multi_nodes),
    ("dynseg.static_cluster", "louvain_multi", "static_cluster.louvain_multi", _multi_nodes),
    ("dynseg.static_cluster", "walktrap", "static_cluster.walktrap", _nodes),
    ("dynseg.static_cluster", "label_propagation", "static_cluster.label_propagation", _nodes),
    ("dynseg.objectives", "segment_log_likelihood", "objectives.segment_log_likelihood", _segment),
    ("dynseg.objectives", "log_likelihood", "objectives.log_likelihood", None),
    ("dynseg.objectives", "snapshot_fit", "objectives.snapshot_fit", None),
    ("dynseg.cli", "generate", "generator.generate", None),
    ("dynseg.cli", "sim_t", "evaluation.sim_t", None),
    ("dynseg.cli", "sim_p", "evaluation.sim_p", None),
    ("dynseg.cli", "sim_b", "evaluation.sim_b", None),
    ("dynseg.cli", "ranking_from_cscd", "evaluation.ranking", None),
    ("dynseg.cli", "change_point_classification", "evaluation.ranking_scores", None),
    ("dynseg.cli", "paired_t_test", "evaluation.paired_t_test", None),
)

CLUSTERERS = ("static_cluster.walktrap", "static_cluster.label_propagation",
              "static_cluster.louvain_multi")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a mean per traced operation."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(*names):
        return sum(s.duration for n in names for s in by_name[n]) / ops

    def calls(*names):
        return sum(len(by_name[n]) for n in names) / ops

    def attr_sum(key, *names):
        return sum((s.attrs or {}).get(key, 0) for n in names for s in by_name[n]) / ops

    self_of = self_times(spans)
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += self_of[s.id]

    # Distinct segments are counted per table build: in the grid one
    # operation builds many tables, each over its own network.
    parent_of = {s.id: s.parent for s in spans}
    names = {s.id: s.name for s in spans}

    def table_of(sid):
        while sid is not None and names.get(sid) != "search.build_table":
            sid = parent_of.get(sid)
        return sid

    ll_spans = by_name["objectives.segment_log_likelihood"]
    distinct = {
        (table_of(s.parent), *s.attrs["segment"]) for s in ll_spans if s.attrs
    }
    ll_calls = len(ll_spans)

    m = {
        "static_cluster.walktrap_s": (dur("static_cluster.walktrap"), "s"),
        "static_cluster.lpa_s": (dur("static_cluster.label_propagation"), "s"),
        "static_cluster.louvain_multi_s": (dur("static_cluster.louvain_multi"), "s"),
        "static_cluster.calls": (calls(*CLUSTERERS), "count"),
        "static_cluster.nodes": (attr_sum("nodes", *CLUSTERERS), "count"),
        "consensus.calls": (calls("consensus.segment_partition"), "count"),
        "consensus.sum_graph_s": (dur("consensus.sum_graph"), "s"),
        "consensus.sum_graph_edge_visits": (attr_sum("edges", "consensus.sum_graph"), "count"),
        "objectives.segment_ll_s": (dur("objectives.segment_log_likelihood"), "s"),
        "objectives.segment_ll_calls": (ll_calls / ops, "count"),
        "objectives.segment_ll_distinct": (len(distinct) / ops, "count"),
        "objectives.segment_ll_useful_ratio": (
            len(distinct) / ll_calls if ll_calls else 0.0, "ratio"),
        "objectives.table_ll_s": (dur("objectives.log_likelihood"), "s"),
        "objectives.snapshot_fit_s": (dur("objectives.snapshot_fit"), "s"),
        "objectives.snapshot_fit_calls": (calls("objectives.snapshot_fit"), "count"),
        "search.build_table_s": (dur("search.build_table"), "s"),
        "dyngraph.load_s": (dur("dyngraph.load"), "s"),
        "dyngraph.load_calls": (calls("dyngraph.load"), "count"),
        "dyngraph.dump_s": (dur("dyngraph.dump"), "s"),
        "generator.generate_s": (dur("generator.generate"), "s"),
        "generator.calls": (calls("generator.generate"), "count"),
        "evaluation.sim_s": (dur("evaluation.sim_t", "evaluation.sim_p", "evaluation.sim_b"), "s"),
        "evaluation.rank_s": (dur("evaluation.ranking", "evaluation.ranking_scores"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / ops, "s")
    m["trace.spans"] = (len(spans) / ops, "count")
    return m


def dominant_layer(metrics: dict[str, tuple[float, str]]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"][0])

"""The tracer's attribute readers count what the library hands them.

``bench/tracing.py`` wraps library functions and reads counts from their
arguments, swallowing attribute errors so that a changed signature cannot
break a traced run.  A reader that no longer matches the library's types
would therefore read 0 without failing; these tests pin the counts and
that every wrapped function still exists under its traced name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dynseg.consensus import sum_graph
from dynseg.dyngraph import load_dynamic_network

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


NETWORK = "0 a b\n0 b c\n0 d\n1 a c\n2 a b\n2 c d\n2 b d\n"


def test_edge_visits_counts_segment_edges(tracing):
    network = load_dynamic_network(NETWORK)
    assert tracing._edge_visits(network, 0, 2) == {"edges": 6}
    assert tracing._edge_visits(network, 1, 1) == {"edges": 1}


def test_nodes_counts_graph_nodes(tracing):
    network = load_dynamic_network(NETWORK)
    assert tracing._nodes(sum_graph(network, 0, 2)) == {"nodes": 4}
    assert tracing._nodes(sum_graph(network, 1, 1)) == {"nodes": 2}


def test_targets_name_existing_attributes(tracing):
    # a renamed or moved function would leave its span, and its metrics, at 0
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert missing == []

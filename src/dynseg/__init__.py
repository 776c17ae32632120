"""Segment community detection for snapshot-sequence dynamic networks."""

from .consensus import Consensus
from .dyngraph import (
    DynamicNetwork,
    Partition,
    ScdOutput,
    load_dynamic_network,
    load_output,
)
from .generator import GeneratorConfig, generate
from .objectives import Criterion, FitMeasure
from .search import SearchSpec, build_table, solve_cscd, solve_scd
from .static_cluster import WeightedGraph

__all__ = [
    "Consensus",
    "Criterion",
    "DynamicNetwork",
    "FitMeasure",
    "GeneratorConfig",
    "Partition",
    "ScdOutput",
    "SearchSpec",
    "WeightedGraph",
    "build_table",
    "generate",
    "load_dynamic_network",
    "load_output",
    "solve_cscd",
    "solve_scd",
]

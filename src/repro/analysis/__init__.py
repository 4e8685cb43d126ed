"""Reproduction of every table and figure in the paper's evaluation.

Each ``table_*`` / ``figure_*`` function returns structured rows
(dataclasses / dicts) and has a matching ``render_*`` helper that
formats them the way the paper presents them.  The benchmark harness in
``benchmarks/`` calls these and prints the output next to the paper's
published values.
"""

from repro.analysis.tables import (
    table2_memory_footprints,
    table3_multinode,
    table4_system_sizes,
    render_table,
)
from repro.analysis.figures import (
    figure3_affinity,
    figure4_single_node,
    figure5_modes,
    figure6_scaling_curves,
    figure7_5nm_scaling,
)
from repro.analysis.report import render_series, format_seconds, shape_check
from repro.analysis.plots import ascii_loglog

__all__ = [
    "table2_memory_footprints",
    "table3_multinode",
    "table4_system_sizes",
    "render_table",
    "figure3_affinity",
    "figure4_single_node",
    "figure5_modes",
    "figure6_scaling_curves",
    "figure7_5nm_scaling",
    "render_series",
    "format_seconds",
    "shape_check",
    "ascii_loglog",
]

"""Measurement and reporting utilities for the benchmark harness."""

from repro.metrics.netstat import (
    netstat_json,
    node_counters,
    render_netstat,
    stage_rows,
    totals,
)
from repro.metrics.report import Table, fmt_float
from repro.metrics.stats import mean, mean_ci, percentile, stdev, summarize

__all__ = [
    "Table",
    "fmt_float",
    "mean",
    "mean_ci",
    "netstat_json",
    "node_counters",
    "percentile",
    "render_netstat",
    "stage_rows",
    "stdev",
    "summarize",
    "totals",
]

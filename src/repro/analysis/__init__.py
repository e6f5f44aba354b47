"""Measurement post-processing: CDFs, medians, tables, ASCII plots."""

from repro.analysis.cdf import cdf, percentile_spread
from repro.analysis.stats import (
    improvement,
    median,
    median_of,
    ratio,
    speedup,
)
from repro.analysis.tables import ascii_bar_chart, format_table
from repro.analysis.timeline import (
    gantt,
    slot_utilization,
    to_csv,
    to_json,
    write_json,
)

__all__ = [
    "ascii_bar_chart",
    "cdf",
    "format_table",
    "gantt",
    "improvement",
    "median",
    "median_of",
    "percentile_spread",
    "ratio",
    "slot_utilization",
    "speedup",
    "to_csv",
    "to_json",
    "write_json",
]

"""Result analysis and reporting helpers for the benchmark harness."""

from repro.analysis.stats import cdf, percentile, summarize, Summary
from repro.analysis.series import Series
from repro.analysis.report import render_table, render_series_table, format_si
from repro.analysis.asciiplot import ascii_plot
from repro.analysis.timeline import rate_timeline

__all__ = [
    "cdf",
    "percentile",
    "summarize",
    "Summary",
    "Series",
    "render_table",
    "render_series_table",
    "format_si",
    "ascii_plot",
    "rate_timeline",
]

"""Result formatting: paper-style tables and ASCII series plots."""

from repro.analysis.report import (
    ascii_series,
    format_table,
    series_by_protocol,
)

__all__ = [
    "format_table",
    "ascii_series",
    "series_by_protocol",
]

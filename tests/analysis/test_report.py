"""Unit tests for the plain-text reporting helpers."""

import pytest

from repro.analysis.report import (
    ascii_series,
    format_table,
    series_by_protocol,
)
from repro.util.stats import summarize


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["proto", "hops"], [["cycloid", 4.5], ["viceroy", 18.2]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("proto")
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["a"], [["x"]], title="Fig 5")
        assert text.splitlines()[0] == "Fig 5"

    def test_wide_values_expand_columns(self):
        text = format_table(["a"], [["very-long-value"]])
        header, rule, row = text.splitlines()
        assert len(rule) >= len("very-long-value")
        del header, row


class TestPercentileRows:
    """Edge cases of the ``mean (p1, p99)`` printers the tables use."""

    def test_empty_series(self):
        summary = summarize([])
        assert summary.as_row() == "0.00 (0, 0)"
        assert summary.count == 0
        assert summary.spread == 0.0

    def test_single_sample(self):
        # One sample: every percentile is the sample itself.
        summary = summarize([7.0])
        assert summary.as_row() == "7.00 (7, 7)"
        assert summary.p1 == summary.p99 == 7.0

    def test_two_samples_interpolate(self):
        # n=2: the 1st/99th percentiles interpolate between the two
        # order statistics (rank = q/100 * (n-1)), staying in-bounds.
        summary = summarize([1.0, 3.0])
        assert summary.mean == 2.0
        assert summary.p1 == pytest.approx(1.02)
        assert summary.p99 == pytest.approx(2.98)
        assert summary.as_row() == "2.00 (1.02, 2.98)"

    def test_two_samples_render_in_table(self):
        text = format_table(
            ["timeouts"], [[summarize([1.0, 3.0]).as_row()]]
        )
        assert "(1.02, 2.98)" in text


class TestSeriesByProtocol:
    def test_grouping(self):
        points = [("cycloid", 3, 2.0), ("cycloid", 4, 3.0), ("chord", 3, 2.5)]
        series = series_by_protocol(
            points,
            x_of=lambda p: p[1],
            y_of=lambda p: p[2],
            protocol_of=lambda p: p[0],
        )
        assert series == {
            "cycloid": [(3, 2.0), (4, 3.0)],
            "chord": [(3, 2.5)],
        }


class TestAsciiSeries:
    def test_renders_bars(self):
        text = ascii_series({"cycloid": [(3, 2.0), (8, 8.0)]}, width=10)
        assert "cycloid:" in text
        assert "##########" in text  # peak fills the width

    def test_empty_series(self):
        assert ascii_series({}) == ""
        assert ascii_series({"x": []}) == "x:"

    def test_zero_values(self):
        text = ascii_series({"x": [(1, 0.0)]})
        assert "0.00" in text

    def test_title_and_unit(self):
        text = ascii_series({"x": [(1, 1.0)]}, title="T", unit=" hops")
        assert text.splitlines()[0] == "T"
        assert "hops" in text

"""Unit tests for repro.util.stats."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.util.stats import (
    DistributionSummary,
    PhaseBreakdown,
    mean,
    percentile,
    summarize,
)


class TestMean:
    def test_empty(self):
        assert mean([]) == 0.0

    def test_values(self):
        assert mean([1, 2, 3, 4]) == 2.5


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single(self):
        assert percentile([7], 1) == 7
        assert percentile([7], 99) == 7

    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100
        assert percentile(data, 50) == 50

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -1)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_bounded_by_min_max(self, data):
        for q in (1, 50, 99):
            value = percentile(data, q)
            assert min(data) <= value <= max(data)

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=50))
    @example([5] * 8 + [6])  # the weighted form's p1 exceeded its p50
    def test_monotone_in_q(self, data):
        assert percentile(data, 1) <= percentile(data, 50) <= percentile(data, 99)


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_fields(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.mean == 3.0
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.count == 5
        assert summary.p1 <= summary.p99

    def test_as_row_format(self):
        summary = DistributionSummary(2.36, 0, 11, 0, 12, 100)
        assert summary.as_row() == "2.36 (0, 11)"

    def test_spread(self):
        summary = summarize([0, 10])
        assert summary.spread == summary.p99 - summary.p1 > 0


class TestPhaseBreakdown:
    def test_empty(self):
        breakdown = PhaseBreakdown()
        assert breakdown.total_hops == 0
        assert breakdown.fraction("ascending") == 0.0
        assert breakdown.mean_hops("ascending") == 0.0

    def test_record_accumulates(self):
        breakdown = PhaseBreakdown()
        breakdown.record({"ascending": 1, "descending": 3})
        breakdown.record({"descending": 2, "traverse": 2})
        assert breakdown.lookups == 2
        assert breakdown.total_hops == 8
        assert breakdown.totals == {
            "ascending": 1,
            "descending": 5,
            "traverse": 2,
        }

    def test_fractions_sum_to_one(self):
        breakdown = PhaseBreakdown()
        breakdown.record({"a": 3, "b": 1})
        fractions = breakdown.fractions()
        assert fractions["a"] == pytest.approx(0.75)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_mean_hops_per_lookup(self):
        breakdown = PhaseBreakdown()
        breakdown.record({"a": 4})
        breakdown.record({"a": 2})
        assert breakdown.mean_hops("a") == 3.0

    def test_phases_sorted(self):
        breakdown = PhaseBreakdown()
        breakdown.record({"zeta": 1, "alpha": 1})
        assert breakdown.phases() == ["alpha", "zeta"]

"""Tests for the analysis/reporting helpers."""

import pytest

from repro.analysis import (
    Series,
    cdf,
    format_si,
    percentile,
    render_series_table,
    render_table,
    summarize,
)


class TestStats:
    def test_cdf_empty(self):
        assert cdf([]) == []

    def test_cdf_points(self):
        points = cdf([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)),
                          (2.0, pytest.approx(2 / 3)),
                          (3.0, pytest.approx(1.0))]

    def test_cdf_monotone(self):
        points = cdf([5, 1, 4, 1, 3])
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions == sorted(fractions)

    def test_percentile(self):
        data = list(range(101))
        assert percentile(data, 50) == pytest.approx(50)
        assert percentile(data, 95) == pytest.approx(95)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSeries:
    def test_append_and_points(self):
        series = Series("test")
        series.append(1, 10)
        series.append(2, 20)
        assert series.points() == [(1.0, 10.0), (2.0, 20.0)]
        assert len(series) == 2

    def test_y_at(self):
        series = Series("test", x=[1, 2], y=[10, 20])
        assert series.y_at(2) == 20
        assert series.y_at(3) is None


class TestFormatting:
    def test_format_si(self):
        assert format_si(812_345) == "812K"
        assert format_si(1_500_000) == "1.5M"
        assert format_si(2.5e9) == "2.5G"
        assert format_si(42) == "42"

    def test_render_table_alignment(self):
        text = render_table(["a", "bbb"], [["xx", 1], ["y", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bbb" in lines[2]
        assert len(lines) == 6

    def test_render_series_table_merges_x(self):
        a = Series("A", x=[1, 2], y=[10, 20], x_label="k")
        b = Series("B", x=[2, 3], y=[200, 300])
        text = render_series_table([a, b])
        assert "k" in text
        assert "-" in text  # missing points rendered as dash

    def test_render_series_table_empty(self):
        assert render_series_table([], title="nothing") == "nothing"

"""Tests for table rendering."""

from repro.harness.tables import format_cell, render_series, render_table, sparkline


class TestFormatCell:
    def test_none(self):
        assert format_cell(None) == "-"

    def test_nan(self):
        assert format_cell(float("nan")) == "n/a"

    def test_small_float_scientific(self):
        assert "e" in format_cell(1.5e-7)

    def test_integer_float(self):
        assert format_cell(3.0) == "3"

    def test_regular_float(self):
        assert format_cell(0.123456789) == "0.123457"

    def test_string_passthrough(self):
        assert format_cell("abc") == "abc"


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        text = render_table(["x", "y"], [[1, 2], [3, 4]], title="T")
        assert "T" in text
        assert "x" in text and "y" in text
        assert "3" in text and "4" in text

    def test_column_alignment(self):
        text = render_table(["name", "v"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len({line.index("v") for line in lines[:1]}) == 1

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([1, 2, 3, 4, 5])
        assert "[1 .. 5]" in line

    def test_constant_series(self):
        line = sparkline([2.0, 2.0, 2.0])
        assert "[2 .. 2]" in line

    def test_empty(self):
        assert sparkline([]) == "(no data)"

    def test_nan_handling(self):
        line = sparkline([1.0, float("nan"), 3.0])
        assert "?" in line


class TestRenderSeries:
    def test_includes_all_curves(self):
        text = render_series(
            "n", [1, 2], {"up": [0.1, 0.9], "down": [0.9, 0.1]}, title="S"
        )
        assert "up" in text and "down" in text and "S" in text

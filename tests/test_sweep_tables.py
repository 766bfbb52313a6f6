"""Tests for table rendering."""

from repro.harness.tables import format_cell, render_table


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

    def test_no_trailing_whitespace(self):
        text = render_table(["name", "value"], [["a", 1], ["bbbbbb", None]])
        assert all(line == line.rstrip() for line in text.splitlines())

    def test_columns_padded_to_widest_cell(self):
        text = render_table(["x", "y"], [["long-cell", 1]])
        header, rule, row = text.splitlines()
        assert rule == "-" * len("long-cell") + "  -"
        assert header.index("y") == row.index("1") == len("long-cell") + 2

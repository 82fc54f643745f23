"""Rendering helper tests."""

from repro.experiments.report import render_series, render_table, sparkline


class TestRenderTable:
    def test_basic(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["x", 3.14159]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert "3.142" in lines[-1]

    def test_title(self):
        out = render_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_column_padding(self):
        out = render_table(["col"], [["longvalue"]])
        header, _sep, row = out.splitlines()
        assert len(header) == len(row)

    def test_float_formatting(self):
        out = render_table(["v"], [[1e-9], [123456.0], [float("nan")]])
        assert "1e-09" in out
        assert "1.23e+05" in out
        assert "-" in out.splitlines()[-1]


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline([1, 2, 3, 4])
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_series(self):
        assert len(sparkline([5, 5, 5])) == 3

    def test_nan_renders_space(self):
        assert sparkline([1.0, float("nan"), 2.0])[1] == " "

    def test_all_nan(self):
        assert sparkline([float("nan")] * 3) == "   "


class TestRenderSeries:
    def test_contains_table_and_shapes(self):
        out = render_series(
            "Fig X", [0.1, 0.2], {"a": [1.0, 2.0], "b": [3.0, 4.0]}
        )
        assert "Fig X" in out
        assert "shape:" in out
        assert "granularity" in out

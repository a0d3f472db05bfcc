import hashlib
import math
import re
from xml.sax.saxutils import escape

import numpy as np
import pytest

from qusync import svgplot
from tests.oracles import lexsort_m4

PLOT_WIDTH = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R


def polyline_points(path) -> list[list[str]]:
    """The "px,py" pairs of every polyline in an SVG file, as written."""
    return [pts.split(" ") for pts in re.findall(r'<polyline points="([^"]*)"',
                                                  path.read_text())]


def test_decimation_keeps_column_extremes_and_endpoints(tmp_path, monkeypatch):
    t = np.linspace(0.0, 200.0, 20001)
    y = np.exp(-0.01 * t) * np.cos(t) + 0.05 * np.sin(37.0 * t)
    svgplot.line_plot(tmp_path / "m4.svg", [("y", t, y)])
    (kept,) = polyline_points(tmp_path / "m4.svg")
    monkeypatch.setattr(svgplot, "_m4", lambda column, y: np.arange(len(column)))
    svgplot.line_plot(tmp_path / "full.svg", [("y", t, y)])
    (full,) = polyline_points(tmp_path / "full.svg")
    assert len(full) == t.size

    column = np.floor((t - t[0]) * (PLOT_WIDTH / (t[-1] - t[0]))).astype(int)
    starts = np.flatnonzero(np.diff(column, prepend=-1))
    runs = np.split(np.arange(t.size), starts[1:])
    assert len(runs) == PLOT_WIDTH + 1
    assert len(kept) <= 4 * len(runs)
    drawn = set(kept)
    for run in runs:
        lowest = run[np.argmin(y[run])]
        highest = run[np.argmax(y[run])]
        for i in (run[0], run[-1], lowest, highest):
            assert full[i] in drawn
    # the kept points keep their order along the curve
    it = iter(full)
    assert all(point in it for point in kept)
    assert kept[0] == full[0] and kept[-1] == full[-1]


def m4_cases():
    """(column, y) pairs: the edge cases by name, seeded tie-heavy runs, and
    the pixel columns of a 20001-point trajectory."""
    rng = np.random.default_rng(26)
    cases = {
        "one point": ([3], [0.5]),
        "two points, one column": ([0, 0], [1.0, 1.0]),
        "two points, two columns": ([0, 1], [2.0, -1.0]),
        "signed zeros, one column": ([0] * 6, [0.0, -0.0, 0.0, 1.0, -0.0, 1.0]),
        "one-point runs": (np.arange(-3, 9), rng.standard_normal(12)),
    }
    for k in range(1000):
        n = int(rng.integers(1, 80))
        width = int(rng.integers(1, n + 1))
        column = np.sort(rng.integers(-2, width, n))
        cases[f"seeded {k}"] = (column, rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], n))
    t = np.linspace(0.0, 200.0, 20001)
    column = np.floor(t * (PLOT_WIDTH / 200.0)).astype(np.int64)
    y = np.exp(-0.01 * t) * np.cos(t)
    cases["trajectory"] = (column, y)
    cases["trajectory, 3 decimals"] = (column, np.round(y, 3))
    return cases


def test_m4_picks_the_stable_sort_indices():
    # first of equal lowest values and last of equal highest: the indices
    # that one stable sort by (column, y) picks, index for index
    for name, (column, y) in m4_cases().items():
        column, y = np.asarray(column, dtype=np.int64), np.asarray(y, dtype=float)
        got, want = svgplot._m4(column, y), lexsort_m4(column, y)
        assert got.tolist() == want.tolist(), name


def test_decimation_keeps_every_point_without_monotone_x(tmp_path):
    x = np.cos(np.linspace(0.0, 6.0, 5000))
    svgplot.line_plot(tmp_path / "loop.svg", [("loop", x, np.sin(x)),
                                              ("dots", x, x, "markers")])
    (points,) = polyline_points(tmp_path / "loop.svg")
    assert len(points) == x.size
    assert (tmp_path / "loop.svg").read_text().count("<circle") == x.size


def test_sparse_line_plot_bytes_unchanged(tmp_path):
    # 21-point curves have at most one point per pixel column, so decimation
    # keeps them whole; their digests are of the output before it existed.
    # The 20001-point case pins the decimated path that evolve draws.
    xi = [-1.0 + 0.1 * k for k in range(21)]
    gamma = [10 ** (-2 + 2 * k / 20) for k in range(21)]
    mi = [0.3 / (1 + g) for g in gamma]
    dq = [0.1 / (1 + g) for g in gamma]
    # built with math, so that no CPU-dispatched numpy kernel can move a value
    t = np.linspace(0.0, 200.0, 20001)
    sz1 = [0.25 + 0.75 * math.exp(-0.01 * v) * math.cos(1.03 * v) for v in t.tolist()]
    sz2 = [-0.25 - 0.75 * math.exp(-0.012 * v) * math.cos(0.97 * v + 0.2) for v in t.tolist()]
    cases = {
        "b5b650aaee64feb1beccd0e2c0d6226d7073b2efb4f5906d901e690817376a65": dict(
            curves=[("delta phi", xi, [math.sin(3 * x) for x in xi])],
            title="asymptotic phase shift", xlabel="xi", ylabel="rad"),
        "7eb851277833400de9523d4d85d11feddc4146dd5befe7f42e374cf26d81ce1e": dict(
            curves=[("I", gamma, mi, "line"), ("D", gamma, dq, "dash"),
                    ("pts", gamma, dq, "markers")],
            bands=[(gamma, dq, mi)], xscale="log",
            title="total vs quantum", xlabel="gamma", ylabel="bits"),
        "2f05bd1ffd73cbeaef9469c463daef8c4b13ee496c0ff7fa31770da80fd2090d": dict(
            curves=[("<sz1>", t, sz1), ("<sz2>", t, sz2)],
            title="magnetization, xi = +0.30", xlabel="t", ylabel="<sz>"),
    }
    for digest, kwargs in cases.items():
        path = tmp_path / "plot.svg"
        svgplot.line_plot(path, **kwargs)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_ticks_stop_where_the_step_is_below_the_float_spacing(tmp_path):
    # the 0.5 step is below the float spacing of 1e16 (2), so t += step stays at 1e16
    assert svgplot._ticks(1e16, 1e16 + 2) == [1e16]
    svgplot.line_plot(tmp_path / "flat.svg", [("a", [0, 1, 2], [1e16, 1e16 + 2, 1e16])])
    assert (tmp_path / "flat.svg").read_text().endswith("</svg>\n")


@pytest.mark.parametrize("data", [[0.0, 5e-324], [-1e308, 1e308],
                                  [9.083654234753976e307, 1.7696103546060634e308],
                                  [1e17, 1e17]],
                         ids=["subnormal-span", "overflowing-span",
                              "ticks-beyond-the-largest-float", "constant-above-2**53"])
def test_finite_data_of_any_span_is_drawn(tmp_path, data):
    # a span below the normal floats, one beyond the largest float (whose
    # padding can hold a tick beyond it), and constant data where adding 1
    # moves nothing: each axis is drawn with finite pixels and labels, on x
    # and on y, without a numpy warning
    for x, y in (([0.0, 1.0], data), (data, [0.0, 1.0])):
        path = tmp_path / "span.svg"
        with np.errstate(all="raise"):
            svgplot.line_plot(path, [("a", x, y)], bands=[(x, y, y)])
        text = path.read_text()
        assert text.endswith("</svg>\n")
        assert not re.search(r"nan|inf", text), text
        (points,) = polyline_points(path)
        assert len(points) == 2


def test_escape_matches_saxutils():
    for text in ['&<>"\'', "<sz1>", "a && b <= c > d", "&amp;", "plain", ""]:
        assert svgplot._escape(text) == escape(text)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_data_is_refused_naming_the_curve(tmp_path, bad):
    x = [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="curve 'sz2' must be finite"):
        svgplot.line_plot(tmp_path / "x.svg", [("sz1", x, x), ("sz2", x, [0.0, bad, 1.0])])
    with pytest.raises(ValueError, match="curve 'dots' must be finite"):
        svgplot.line_plot(tmp_path / "x.svg", [("dots", [0.0, bad], [1.0, 2.0], "markers")])
    with pytest.raises(ValueError, match="band 0 must be finite"):
        svgplot.line_plot(tmp_path / "x.svg", [("I", x, x)], bands=[(x, x, [1.0, 2.0, bad])])
    assert not (tmp_path / "x.svg").exists()


def test_mismatched_plot_data_is_refused_naming_it(tmp_path):
    x3, y2 = [0.0, 1.0, 2.0], [0.0, 1.0]
    for style, x in (("markers", x3), ("line", x3), ("line", x3[::-1]), ("dash", x3[::-1])):
        with pytest.raises(ValueError, match="curve 'sz2' has arrays of different shapes"):
            svgplot.line_plot(tmp_path / "x.svg", [("sz1", x3, x3), ("sz2", x, y2, style)])
    with pytest.raises(ValueError, match="band 1 has arrays of different shapes"):
        svgplot.line_plot(tmp_path / "x.svg", [("I", x3, x3)],
                          bands=[(x3, x3, x3), (x3, x3, y2)])
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("z, message", [
    ([[0.1, 0.2, 0.3], [0.4, 0.5]], r"z must have shape \(2, 3\)"),
    ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6, 0.7]], r"z must have shape \(2, 3\)"),
    ([[0.1, 0.2, 0.3]], r"z must have shape \(2, 3\), got \(1, 3\)"),
    (np.ones((3, 2)), r"z must have shape \(2, 3\), got \(3, 2\)"),
    ([[0.1, math.nan, 0.3], [0.4, 0.5, 0.6]], "z must be finite"),
    ([[0.1, 0.2, 0.3], [0.4, 0.5, -math.inf]], "z must be finite"),
], ids=["short-row", "long-row", "missing-row", "transposed", "nan", "inf"])
def test_heatmap_refuses_z_that_does_not_fit_the_axes(tmp_path, z, message):
    with pytest.raises(ValueError, match=message):
        svgplot.heatmap(tmp_path / "h.svg", [-1.0, 1.0], [0.1, 0.2, 0.3], z)
    assert not (tmp_path / "h.svg").exists()


@pytest.mark.parametrize("z", [[[-1e308, 1e308]], [[0.0, 5e-324]]],
                         ids=["overflowing-span", "subnormal-span"])
def test_heatmap_colours_finite_z_of_any_span(tmp_path, z):
    # the colour scale is laid out by _extent, as the line axes are: the two
    # cells take the two ends of the colour map, without a numpy warning
    path = tmp_path / "h.svg"
    with np.errstate(all="raise"):
        svgplot.heatmap(path, [0.0], [0.0, 1.0], z)
    text = path.read_text()
    assert not re.search(r"nan|inf", text), text
    cells = re.findall(r'<rect x="72.00" [^>]*fill="(#[0-9a-f]{6})"', text)
    assert cells == [svgplot._color(0.0), svgplot._color(1.0)]


def test_log_axis_refuses_x_not_above_zero(tmp_path):
    x, y = [0.0, 1.0, 10.0], [1.0, 2.0, 3.0]
    with pytest.raises(svgplot.ValidationError, match="curve 'b' has x <= 0 on a log axis"):
        svgplot.line_plot(tmp_path / "x.svg", [("a", x[1:], y[1:]), ("b", x, y)],
                          xscale="log")
    with pytest.raises(svgplot.ValidationError, match="band 0 has x <= 0 on a log axis"):
        svgplot.line_plot(tmp_path / "x.svg", [("a", x[1:], y[1:])],
                          bands=[([-1.0, 1.0], [0.0, 0.0], [1.0, 1.0])], xscale="log")
    assert not (tmp_path / "x.svg").exists()


def test_unknown_xscale_is_refused(tmp_path):
    with pytest.raises(svgplot.ValidationError,
                       match="xscale must be 'linear' or 'log', got 'symlog'"):
        svgplot.line_plot(tmp_path / "x.svg", [("a", [1.0, 2.0], [1.0, 2.0])], xscale="symlog")
    assert not (tmp_path / "x.svg").exists()


def test_unknown_curve_style_is_refused(tmp_path):
    with pytest.raises(svgplot.ValidationError, match="curve 'b' has unknown style 'dots'"):
        svgplot.line_plot(tmp_path / "x.svg", [("a", [1.0, 2.0], [1.0, 2.0], "markers"),
                                               ("b", [1.0, 2.0], [1.0, 2.0], "dots")])
    assert not (tmp_path / "x.svg").exists()


def test_heatmap_bytes_unchanged(tmp_path):
    # digest taken before heatmap read z as one array; nested lists and an
    # array of the same values write the same bytes
    xi = [-1.0 + 0.25 * k for k in range(9)]
    gamma = [10 ** (-2 + 2 * k / 6) for k in range(7)]
    z = [[0.3 * math.exp(-g) * (1 - x * x) + 0.01 * k for k, g in enumerate(gamma)]
         for x in xi]
    for values in (z, np.array(z)):
        path = tmp_path / "heatmap.svg"
        svgplot.heatmap(path, xi, gamma, values, title="mutual information (bits), j_xy = +0.25",
                        xlabel="xi", ylabel="gamma")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a9b6768d9ce32ae2fd6d6b1cc7b65f64c77763f9e759bd254666a2cace167775")

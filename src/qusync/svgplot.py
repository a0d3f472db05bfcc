"""Minimal self-contained SVG plotting: polyline charts and heatmaps.

Output files are standalone vector documents (axes, ticks, polylines, rects,
text) with no external references, so they render anywhere and diff cleanly
under version control.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

import numpy as np

from .operators import ValidationError, require_finite

__all__ = ["line_plot", "heatmap"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 52
PLOT_W, PLOT_H = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#17becf"]

# dark-blue -> teal -> green -> yellow anchors for heatmap shading
_CMAP = [(0.267, 0.005, 0.329), (0.283, 0.141, 0.458), (0.254, 0.265, 0.530),
         (0.207, 0.372, 0.553), (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
         (0.135, 0.659, 0.518), (0.267, 0.749, 0.441), (0.478, 0.821, 0.318),
         (0.741, 0.873, 0.150), (0.993, 0.906, 0.144)]


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text, as ``xml.sax.saxutils.escape``
    does; that module is not imported because it loads ``urllib.request``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _color(frac: float) -> str:
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(_CMAP) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(_CMAP) - 1)
    w = pos - lo
    rgb = [(1 - w) * _CMAP[lo][k] + w * _CMAP[hi][k] for k in range(3)]
    return "#" + "".join(f"{int(round(255 * c)):02x}" for c in rgb)


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / 4  # the step of about five ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda s: abs(s * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out, t, last = [], first, None
    # a step below the float spacing of t would leave t where it is
    while t <= hi + 1e-12 * span and t != last:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        last, t = t, t + step
    return out or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="22" font-family="sans-serif" font-size="14" '
            f'text-anchor="middle">{_escape(title)}</text>',
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">'
            f'{_escape(xlabel)}</text>',
            f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">'
            f'{_escape(ylabel)}</text>',
        ]

    def add(self, fragment: str) -> None:
        if fragment:  # an empty one would write a blank line
            self.parts.append(fragment)

    def write(self, path) -> None:
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _extent(lo: float, hi: float, pad: float = 0.0) -> tuple[float, float, float]:
    """(lo, hi, unit): an axis over data in [lo, hi], widened by ``pad`` of
    its span at each end, in units of the data times ``unit``.  ``unit`` is
    the first power of two of 1, 2**1000 and 1/4 that gives the axis a
    finite span of at least the smallest normal float, so that a subnormal
    or an overflowing span of finite data is drawn too; 1/4 gives one to
    any finite data."""
    for unit in (1.0, 2.0**1000, 0.25):
        a, b = lo * unit, hi * unit
        if b <= a:
            b = a + 1.0
        if b <= a:  # from 2**53 up, adding 1 moves nothing
            a, b = (a - math.ulp(a), a) if a > 0 else (a, a + math.ulp(a))
        a, b = a - pad * (b - a), b + pad * (b - a)
        if sys.float_info.min <= b - a < math.inf:
            break
    return a, b, unit


def _axes(canvas: _Canvas, x_lo, x_hi, y_lo, y_hi, xscale: str):
    """Draw the frame and the ticks of data in [x_lo, x_hi] x [y_lo, y_hi].
    Return ``to_px(x, y)``, the one map from data to pixels, of arrays or
    scalars, and ``column(x)``, the pixel columns that decimation groups by."""
    axis_x = np.asarray
    if xscale == "log":
        # math.log10 per value: np.log10 differs from it in the last bit on
        # some values, which could move a pixel
        axis_x = np.vectorize(math.log10, otypes=[float])
        x_lo, x_hi = math.log10(x_lo), math.log10(x_hi)
    x_lo, x_hi, x_unit = _extent(x_lo, x_hi)
    y_lo, y_hi, y_unit = _extent(y_lo, y_hi, 0.04)

    # the pixel of an x or y value in axis units
    def px(u):
        return MARGIN_L + (u - x_lo) / (x_hi - x_lo) * PLOT_W

    def py(u):
        return HEIGHT - MARGIN_B - (u - y_lo) / (y_hi - y_lo) * PLOT_H

    def to_px(x, y):
        return px(axis_x(x) * x_unit), py(np.asarray(y) * y_unit)

    def column(x):
        return np.floor((axis_x(x) * x_unit - x_lo) * (PLOT_W / (x_hi - x_lo))).astype(np.int64)

    canvas.add(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" '
               f'height="{PLOT_H}" fill="none" stroke="black"/>')
    if xscale == "log":
        decades = range(math.ceil(x_lo - 1e-9), math.floor(x_hi + 1e-9) + 1)
        xticks, xlabels = axis_x([10.0 ** d for d in decades]), [f"1e{d}" for d in decades]
    else:
        xticks, xlabels = _labelled(_ticks(x_lo, x_hi), x_unit)
    y0 = HEIGHT - MARGIN_B
    px_ticks = px(np.asarray(xticks))
    canvas.add(_each(f'<line x1="%.2f" y1="{y0}" x2="%.2f" y2="{y0 + 5}" stroke="black"/>\n'
                     f'<text x="%.2f" y="{y0 + 18}" font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">%s</text>', "\n", px_ticks, px_ticks, px_ticks,
                     xlabels))
    yticks, ylabels = _labelled(_ticks(y_lo, y_hi), y_unit)
    py_ticks = py(np.asarray(yticks))
    canvas.add(_each(f'<line x1="{MARGIN_L - 5}" y1="%.2f" x2="{MARGIN_L}" y2="%.2f" stroke="black"/>\n'
                     f'<text x="{MARGIN_L - 8}" y="%.2f" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">%s</text>', "\n",
                     py_ticks, py_ticks, py_ticks + 4, ylabels))
    return to_px, column


def _labelled(ticks, unit) -> tuple[list[float], list[str]]:
    """The ticks, in axis units, whose data value is finite, and their
    labels; on an axis in quarters, a tick in the padding can lie beyond the
    largest float."""
    ticks = [t for t in ticks if math.isfinite(t / unit)]
    return ticks, [_fmt(t / unit) for t in ticks]


def _m4(column, y) -> np.ndarray:
    """Indices of the first, last, lowest and highest point of every pixel
    column, in index order (M4 aggregation, Jugel et al., PVLDB 7(10), 2014).

    ``column`` must be non-decreasing, so each column is one run of indices.
    Of equal lowest values the first is kept, and of equal highest values
    the last, as a stable sort by (column, y) would pick them.  At this
    resolution a polyline through these points draws the same picture as
    the full one.
    """
    n = len(column)
    firsts = np.concatenate([[0], np.flatnonzero(np.diff(column)) + 1])
    runs = np.diff(np.append(firsts, n))
    index = np.arange(n)
    lowest = y == np.repeat(np.minimum.reduceat(y, firsts), runs)
    highest = y == np.repeat(np.maximum.reduceat(y, firsts), runs)
    # a mask, not np.unique: that would import numpy.ma on first use
    keep = np.zeros(n, dtype=bool)
    keep[np.concatenate([firsts, firsts + runs - 1,
                         np.minimum.reduceat(np.where(lowest, index, n), firsts),
                         np.maximum.reduceat(np.where(highest, index, -1), firsts)])] = True
    return np.flatnonzero(keep)


def _each(template: str, sep: str, *columns) -> str:
    """``template`` filled from each row of ``columns`` and joined by ``sep``,
    in one format pass over Python values."""
    rows = list(zip(*(np.asarray(col).tolist() for col in columns)))
    return sep.join([template] * len(rows)) % tuple(chain.from_iterable(rows))


def line_plot(
    path,
    curves,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    xscale: str = "linear",
    bands=None,
) -> None:
    """Polyline chart.

    ``curves`` is a list of (label, x, y[, style]) with style "line" (the
    default), "dash" or "markers"; ``bands`` is an optional list of
    (x, y_low, y_high) shaded regions drawn behind the curves.  A line or
    dash curve whose x never decreases keeps only the first, last, lowest
    and highest point of each pixel column; with at most one point per
    column that is every point.  Non-finite data, and a curve or band whose
    arrays differ in shape, an x <= 0 on a log axis, an ``xscale`` other
    than "linear" or "log" and an unknown style raise
    :class:`~qusync.operators.ValidationError` naming the curve, band or
    option.
    """
    if xscale not in ("linear", "log"):
        raise ValidationError(f"xscale must be 'linear' or 'log', got {xscale!r}")
    curves = [(c[0], np.asarray(c[1], dtype=float), np.asarray(c[2], dtype=float),
               c[3] if len(c) > 3 else "line") for c in curves]
    bands = [[np.asarray(v, dtype=float) for v in b] for b in bands or []]
    named = [(f"curve {c[0]!r}", c[1:3]) for c in curves]
    named += [(f"band {k}", b) for k, b in enumerate(bands)]
    for name, arrays in named:
        if len({v.shape for v in arrays}) > 1:
            raise ValidationError(f"{name} has arrays of different shapes: "
                                  f"{', '.join(str(v.shape) for v in arrays)}")
        require_finite(**{name: np.concatenate(arrays)})
        if xscale == "log" and (arrays[0] <= 0).any():
            raise ValidationError(f"{name} has x <= 0 on a log axis")
    for label, _, _, style in curves:
        if style not in ("line", "dash", "markers"):
            raise ValidationError(f"curve {label!r} has unknown style {style!r}")
    xs = [c[1] for c in curves] + [b[0] for b in bands]
    ys = [c[2] for c in curves] + [v for b in bands for v in b[1:]]
    if not sum(x.size for x in xs):
        raise ValueError("nothing to plot")
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    canvas = _Canvas(title, xlabel, ylabel)
    to_px, column = _axes(canvas, float(xs.min()), float(xs.max()),
                          float(ys.min()), float(ys.max()), xscale)

    for bx, blo, bhi in bands:
        pts = to_px(np.concatenate([bx, bx[::-1]]), np.concatenate([bhi, blo[::-1]]))
        canvas.add(f'<polygon points="{_each("%.2f,%.2f", " ", *pts)}" '
                   f'fill="#cccccc" fill-opacity="0.5" stroke="none"/>')

    for idx, (label, x, y, style) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        if style in ("line", "dash"):
            if x.size > 1 and (x[1:] >= x[:-1]).all():
                keep = _m4(column(x), y)
                x, y = x[keep], y[keep]
            dash = ' stroke-dasharray="6,4"' if style == "dash" else ""
            canvas.add(f'<polyline points="{_each("%.2f,%.2f", " ", *to_px(x, y))}" '
                       f'fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')
        else:
            canvas.add(_each(f'<circle cx="%.2f" cy="%.2f" r="2.2" fill="{color}" '
                             f'fill-opacity="0.6"/>', "\n", *to_px(x, y)))
        if label:
            ly = MARGIN_T + 16 + 15 * idx
            lx = WIDTH - MARGIN_R - 150
            canvas.add(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            canvas.add(
                f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">'
                f'{_escape(str(label))}</text>'
            )
    canvas.write(path)


def heatmap(path, x_vals, y_vals, z, *, title="", xlabel="", ylabel="") -> None:
    """Cell-per-point heatmap of z[i, j] over x_vals[i] (horizontal) and
    y_vals[j] (vertical), with an inline colorbar.  ``z`` must be finite and
    of shape ``(len(x_vals), len(y_vals))``; otherwise
    :class:`~qusync.operators.ValidationError` is raised, naming ``z``."""
    n_x, n_y = len(x_vals), len(y_vals)
    if n_x == 0 or n_y == 0:
        raise ValueError("empty heatmap axes")
    try:
        z = np.asarray(z, dtype=float)
    except ValueError as exc:  # rows of different lengths
        raise ValidationError(f"z must have shape {(n_x, n_y)}: {exc}") from exc
    if z.shape != (n_x, n_y):
        raise ValidationError(f"z must have shape {(n_x, n_y)}, got {z.shape}")
    require_finite(z=z)
    z_lo, z_hi = float(z.min()), float(z.max())
    # laid out as a line axis is, so that z of any finite span has a colour scale
    lo, hi, unit = _extent(z_lo, z_hi)
    canvas = _Canvas(title, xlabel, ylabel)
    cell_w, cell_h = (PLOT_W - 70) / n_x, PLOT_H / n_y  # 70 px for the colorbar
    ix, iy = np.divmod(np.arange(n_x * n_y), n_y)  # cell (i, j), i-major
    fills = [_color(frac) for frac in ((z.ravel() * unit - lo) / (hi - lo)).tolist()]
    canvas.add(_each(f'<rect x="%.2f" y="%.2f" width="{cell_w + 0.5:.2f}" '
                     f'height="{cell_h + 0.5:.2f}" fill="%s"/>', "\n",
                     MARGIN_L + ix * cell_w, HEIGHT - MARGIN_B - (iy + 1) * cell_h, fills))
    for i in (0, n_x - 1):
        px = MARGIN_L + (i + 0.5) * cell_w
        canvas.add(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 16}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_fmt(x_vals[i])}</text>'
        )
    for j in (0, n_y - 1):
        py = HEIGHT - MARGIN_B - (j + 0.5) * cell_h
        canvas.add(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_fmt(y_vals[j])}</text>'
        )
    bar_x = WIDTH - MARGIN_R - 46
    n_seg = 24
    seg_h = PLOT_H / n_seg
    seg = np.arange(n_seg)
    canvas.add(_each(f'<rect x="{bar_x}" y="%.2f" width="14" height="{seg_h + 0.5:.2f}" '
                     f'fill="%s"/>', "\n", HEIGHT - MARGIN_B - (seg + 1) * seg_h,
                     [_color(frac) for frac in ((seg + 0.5) / n_seg).tolist()]))
    for y, z_end in ((HEIGHT - MARGIN_B + 4, z_lo), (MARGIN_T + 10, z_hi)):
        canvas.add(f'<text x="{bar_x + 18}" y="{y}" font-family="sans-serif" '
                   f'font-size="10">{_fmt(z_end)}</text>')
    canvas.write(path)

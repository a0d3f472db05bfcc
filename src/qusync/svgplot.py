"""Minimal self-contained SVG plotting: polyline charts and heatmaps.

Output files are standalone vector documents (axes, ticks, polylines, rects,
text) with no external references, so they render anywhere and diff cleanly
under version control.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot", "heatmap"]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 52

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


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda s: abs(s * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
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
        self.parts.append(fragment)

    def write(self, path) -> None:
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _axes(canvas: _Canvas, x_lo, x_hi, y_lo, y_hi, xscale: str):
    if xscale == "log":
        x_lo, x_hi = math.log10(x_lo), math.log10(x_hi)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def to_px(x, y):
        px = MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)
        py = HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)
        return px, py

    canvas.add(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>'
    )
    if xscale == "log":
        lo_dec, hi_dec = math.ceil(x_lo - 1e-9), math.floor(x_hi + 1e-9)
        xticks = [(10.0 ** d, f"1e{d}") for d in range(lo_dec, hi_dec + 1)]
        xticks = [(math.log10(v), lab) for v, lab in xticks]
    else:
        xticks = [(v, _fmt(v)) for v in _ticks(x_lo, x_hi)]
    for xv, lab in xticks:
        px, _ = to_px(xv, y_lo)
        y0 = HEIGHT - MARGIN_B
        canvas.add(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>')
        canvas.add(
            f'<text x="{px:.2f}" y="{y0 + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{lab}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        _, py = to_px(x_lo, yv)
        canvas.add(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        canvas.add(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_fmt(yv)}</text>'
        )
    scale = (WIDTH - MARGIN_L - MARGIN_R) / (x_hi - x_lo)

    def column(x):
        """Pixel column of each x in an array (for decimation only)."""
        x = np.log10(x) if xscale == "log" else x
        return np.floor((x - x_lo) * scale).astype(np.int64)

    if xscale == "log":
        return lambda x, y: to_px(math.log10(x), y), column
    return to_px, column


def _m4(column, y) -> np.ndarray:
    """Indices of the first, last, lowest and highest point of every pixel
    column, in index order (M4 aggregation, Jugel et al., PVLDB 7(10), 2014).

    ``column`` must be non-decreasing, so each column is one run of indices,
    and sorting by (column, y) keeps every run in place.  At this resolution
    a polyline through these points draws the same picture as the full one.
    """
    ends = np.flatnonzero(np.diff(column))
    firsts = np.concatenate([[0], ends + 1])
    lasts = np.concatenate([ends, [len(column) - 1]])
    by_height = np.lexsort((y, column))
    # a mask, not np.unique: that would import numpy.ma on first use
    keep = np.zeros(len(column), dtype=bool)
    keep[np.concatenate([firsts, lasts, by_height[firsts], by_height[lasts]])] = True
    return np.flatnonzero(keep)


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
    column that is every point.
    """
    bands = bands or []
    xs = [np.asarray(c[1], dtype=float) for c in curves] + [
        np.asarray(b[0], dtype=float) for b in bands]
    ys = [np.asarray(c[2], dtype=float) for c in curves] + [
        np.asarray(v, dtype=float) for b in bands for v in b[1:]]
    if not sum(x.size for x in xs):
        raise ValueError("nothing to plot")
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    canvas = _Canvas(title, xlabel, ylabel)
    to_px, column = _axes(canvas, xs.min(), xs.max(), ys.min(), ys.max(), xscale)

    for bx, blo, bhi in bands:
        pts = [to_px(x, y) for x, y in zip(bx, bhi)]
        pts += [to_px(x, y) for x, y in zip(reversed(list(bx)), reversed(list(blo)))]
        joined = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        canvas.add(f'<polygon points="{joined}" fill="#cccccc" fill-opacity="0.5" stroke="none"/>')

    for idx, curve in enumerate(curves):
        label, cx, cy = curve[0], curve[1], curve[2]
        style = curve[3] if len(curve) > 3 else "line"
        color = PALETTE[idx % len(PALETTE)]
        if style in ("line", "dash") and len(cx) > 1:
            x = np.asarray(cx, dtype=float)
            if (np.diff(x) >= 0).all():
                keep = _m4(column(x), np.asarray(cy, dtype=float))
                cx, cy = [cx[i] for i in keep], [cy[i] for i in keep]
        pts = [to_px(x, y) for x, y in zip(cx, cy)]
        if style in ("line", "dash"):
            joined = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            dash = ' stroke-dasharray="6,4"' if style == "dash" else ""
            canvas.add(f'<polyline points="{joined}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')
        else:
            for px, py in pts:
                canvas.add(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.2" fill="{color}" fill-opacity="0.6"/>')
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
    y_vals[j] (vertical), with an inline colorbar."""
    n_x, n_y = len(x_vals), len(y_vals)
    if n_x == 0 or n_y == 0:
        raise ValueError("empty heatmap axes")
    z_lo = min(min(row) for row in z)
    z_hi = max(max(row) for row in z)
    span = (z_hi - z_lo) or 1.0
    canvas = _Canvas(title, xlabel, ylabel)
    plot_w = WIDTH - MARGIN_L - MARGIN_R - 70  # reserve room for the colorbar
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cell_w, cell_h = plot_w / n_x, plot_h / n_y
    for i in range(n_x):
        for j in range(n_y):
            frac = (z[i][j] - z_lo) / span
            px = MARGIN_L + i * cell_w
            py = HEIGHT - MARGIN_B - (j + 1) * cell_h
            canvas.add(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{_color(frac)}"/>'
            )
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
    seg_h = plot_h / n_seg
    for k in range(n_seg):
        frac = (k + 0.5) / n_seg
        py = HEIGHT - MARGIN_B - (k + 1) * seg_h
        canvas.add(
            f'<rect x="{bar_x}" y="{py:.2f}" width="14" height="{seg_h + 0.5:.2f}" '
            f'fill="{_color(frac)}"/>'
        )
    canvas.add(
        f'<text x="{bar_x + 18}" y="{HEIGHT - MARGIN_B + 4}" font-family="sans-serif" '
        f'font-size="10">{_fmt(z_lo)}</text>'
    )
    canvas.add(
        f'<text x="{bar_x + 18}" y="{MARGIN_T + 10}" font-family="sans-serif" '
        f'font-size="10">{_fmt(z_hi)}</text>'
    )
    canvas.write(path)

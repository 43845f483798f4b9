"""Tiny deterministic SVG plotting (line plots with confidence bands and
heatmaps). Hand-rolled so that byte-identical inputs give byte-identical
files, which the run archives rely on."""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#c0392b", "#27ae60", "#2980b9", "#8e44ad", "#d35400", "#16a085")
WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 150, 36, 48
HEATMAP_CELLS = 128


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2e}"
    return f"{v:.3g}"


class _Axes:
    def __init__(self, xlim, ylim, logx=False):
        self.logx = logx
        fx = math.log10 if logx else float
        self.x0, self.x1 = fx(xlim[0]), fx(xlim[1])
        self.y0, self.y1 = float(ylim[0]), float(ylim[1])
        if self.x1 == self.x0:
            self.x1 += 1.0
        if self.y1 == self.y0:
            self.y1 += abs(self.y0) * 0.1 + 1.0

    def px(self, x: float) -> float:
        x = math.log10(x) if self.logx else x
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - MARGIN_T - MARGIN_B)


def svg_line_plot(series, path, title="", xlabel="", ylabel="",
                  logx=False) -> None:
    """series: iterable of dicts with keys label, x, y and optional ci
    (confidence half-widths drawn as a shaded band)."""
    series = list(series)
    xs = [float(v) for s in series for v in s["x"]]
    ys = [float(v) for s in series for v in s["y"]]
    for s in series:
        if s.get("ci") is not None:
            ys.extend(float(y) - float(c) for y, c in zip(s["y"], s["ci"]))
            ys.extend(float(y) + float(c) for y, c in zip(s["y"], s["ci"]))
    if not xs:
        xs = ys = [0.0, 1.0]
    ax = _Axes((min(xs), max(xs)), (min(ys), max(ys)), logx)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
             f'viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="20" font-size="14" text-anchor="middle" '
                     f'font-family="sans-serif">{title}</text>')
    # axes box and ticks
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
                 f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#444"/>')
    for tv in _ticks(ax.x0, ax.x1):
        x = 10 ** tv if logx else tv
        parts.append(f'<line x1="{_fmt(ax.px(x))}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{_fmt(ax.px(x))}" y2="{HEIGHT - MARGIN_B + 5}" stroke="#444"/>')
        parts.append(f'<text x="{_fmt(ax.px(x))}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{_tick_label(x)}</text>')
    for y in _ticks(ax.y0, ax.y1):
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(ax.py(y))}" '
                     f'x2="{MARGIN_L}" y2="{_fmt(ax.py(y))}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(ax.py(y) + 4)}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">{_tick_label(y)}</text>')
    if xlabel:
        parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 10}" '
                     f'font-size="12" text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) // 2})">{ylabel}</text>')

    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = list(zip(s["x"], s["y"]))
        if s.get("ci") is not None:
            upper = [(x, float(y) + float(c)) for (x, y), c in zip(pts, s["ci"])]
            lower = [(x, float(y) - float(c)) for (x, y), c in zip(pts, s["ci"])]
            ring = upper + lower[::-1]
            d = " ".join(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in ring)
            parts.append(f'<polygon points="{d}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        d = " ".join(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in pts)
        parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(ax.px(x))}" cy="{_fmt(ax.py(y))}" r="2.6" fill="{color}"/>')
        ly = MARGIN_T + 16 + 16 * k
        lx = WIDTH - MARGIN_R + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{lx + 27}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{s["label"]}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _color_scale(t: np.ndarray) -> np.ndarray:
    """Simple blue-white-red diverging map on [0, 1], as "#rrggbb" strings."""
    t = np.clip(t, 0.0, 1.0)
    low = t < 0.5
    s = np.where(low, t / 0.5, (t - 0.5) / 0.5)
    # astype(int) truncates the non-negative channel values as int() does
    r = np.where(low, 40 + 215 * s, 255).astype(int)
    g = np.where(low, 80 + 175 * s, 255 - 175 * s).astype(int)
    b = np.where(low, 255, 255 - 215 * s).astype(int)
    # format each distinct colour once
    codes, inverse = np.unique((r << 16) | (g << 8) | b, return_inverse=True)
    return np.array(["#%06x" % code for code in codes.tolist()])[inverse].reshape(t.shape)


def svg_heatmap(values, path, title="") -> None:
    """values: 2D array-like indexed [ix, iy] on the unit square, drawn with
    at most HEATMAP_CELLS cells per side (every step-th value)."""
    arr = np.asarray(values, dtype=float)
    step = max(1, int(np.ceil(max(arr.shape) / HEATMAP_CELLS)))
    arr = arr[::step, ::step]
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo if hi > lo else 1.0
    nx, ny = arr.shape
    size = 480
    cw = size / nx
    ch = size / ny
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size + 40}" '
             f'height="{size + 60}" viewBox="0 0 {size + 40} {size + 60}">',
             f'<rect width="{size + 40}" height="{size + 60}" fill="white"/>']
    if title:
        parts.append(f'<text x="{(size + 40) // 2}" y="18" font-size="13" '
                     f'text-anchor="middle" font-family="sans-serif">{title}</text>')
    colors = _color_scale((arr - lo) / span).tolist()
    xs = [_fmt(x) for x in (20 + np.arange(nx) * cw).tolist()]
    ys = [_fmt(y) for y in (30 + (ny - 1 - np.arange(ny)) * ch).tolist()]
    width, height = _fmt(cw + 0.5), _fmt(ch + 0.5)
    parts.extend(f'<rect x="{x}" y="{y}" width="{width}" height="{height}" fill="{color}"/>'
                 for x, row in zip(xs, colors) for y, color in zip(ys, row))
    parts.append(f'<text x="20" y="{size + 48}" font-size="11" font-family="sans-serif">'
                 f'min={lo:.4g} max={hi:.4g}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")

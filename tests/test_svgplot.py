import numpy as np
import pytest

from randpde.svgplot import _fmt, svg_heatmap


def _loop_color(t: float) -> str:
    """The per-cell colour map the array version replaced."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        s = t / 0.5
        r, g, b = int(40 + 215 * s), int(80 + 175 * s), 255
    else:
        s = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - 175 * s), int(255 - 215 * s)
    return f"#{r:02x}{g:02x}{b:02x}"


def _loop_heatmap(values, title="", max_cells: int = 128) -> str:
    """The per-cell heatmap writer the array version replaced, returning
    the file text."""
    arr = np.asarray(values, dtype=float)
    step = max(1, int(np.ceil(max(arr.shape) / max_cells)))
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
    for ix in range(nx):
        for iy in range(ny):
            t = (arr[ix, iy] - lo) / span
            x = 20 + ix * cw
            y = 30 + (ny - 1 - iy) * ch
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cw + 0.5)}" '
                         f'height="{_fmt(ch + 0.5)}" fill="{_loop_color(t)}"/>')
    parts.append(f'<text x="20" y="{size + 48}" font-size="11" font-family="sans-serif">'
                 f'min={lo:.4g} max={hi:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_rng = np.random.default_rng(5)


@pytest.mark.parametrize("values,title", [
    (np.array([[0.0, 0.5], [1.0, 0.25]]), "t = 0, 1/2 and 1 exactly"),
    (np.linspace(-3.0, 7.0, 11 * 7).reshape(11, 7), ""),
    (np.full((5, 9), 2.5), "constant"),
    (_rng.normal(size=(300, 257)), "strided"),
    (np.sin(np.linspace(0, 20, 129 * 130)).reshape(129, 130), "strided, uneven"),
    (np.arange(40.0).reshape(1, 40), "one row"),
])
def test_heatmap_matches_per_cell_loop(tmp_path, values, title):
    path = tmp_path / "heatmap.svg"
    svg_heatmap(values, path, title=title)
    assert path.read_bytes() == _loop_heatmap(values, title=title).encode()

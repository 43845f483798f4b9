"""Multiscale solves on a randomly perforated domain, with and without
bubble enrichment, across a sweep of coarse mesh sizes.

The domain is the unit square minus 100 seeded random rectangles with sides
uniform in [0.02, 0.05]. Per-element fine grids are chosen so the effective
fine scale stays constant across the sweep. Writes two SVG error plots and
a perforation heatmap next to this script.

Runtime: under a minute (one 512^2 penalized reference).
"""

from pathlib import Path

import numpy as np

from randpde import (CoarseMesh, baseline_solve, build_cr_space, build_perforations,
                     compute_errors, msfem_solve, reference_solve)
from randpde.svgplot import svg_heatmap, svg_line_plot

SWEEP = ((8, 64), (16, 32), (32, 16))   # (coarse elements per side, fine_n)
REFERENCE_N = 512   # = m * fn at every sweep level
SEED = 2026
OUT = Path(__file__).resolve().parent

f_one = lambda x, y: np.ones_like(x)
perf = build_perforations("random_rectangles", count=100,
                          width_range=(0.02, 0.05), height_range=(0.02, 0.05),
                          seed=SEED)
print("reference solve ...")
ref = reference_solve(perf, f_one, REFERENCE_N)

rows = []
for m, fn in SWEEP:
    mesh = CoarseMesh(m)
    space = build_cr_space(mesh, perf, fine_n=fn)
    for label, sol in (
            ("edge-avg+bubbles", msfem_solve(space, f_one)),
            ("edge-avg", msfem_solve(space.without_bubbles(), f_one)),
            ("affine+bubbles", baseline_solve(mesh, perf, f_one, "msfem_linear",
                                              with_bubbles=True, fine_n=fn))):
        l2, h1 = compute_errors(sol, ref)
        rows.append({"label": label, "H": 1.0 / m, "l2": l2, "h1": h1})
        print(f"H=1/{m:<3} {label:>18}: L2 {100 * l2:6.2f}%  H1 {100 * h1:6.2f}%")

for norm in ("l2", "h1"):
    series = []
    for label in ("edge-avg+bubbles", "edge-avg", "affine+bubbles"):
        grp = sorted((r for r in rows if r["label"] == label), key=lambda r: r["H"])
        series.append({"label": label, "x": [r["H"] for r in grp],
                       "y": [r[norm] for r in grp]})
    svg_line_plot(series, OUT / f"random_perforations_{norm}.svg",
                  title=f"relative {norm} error vs H", xlabel="H",
                  ylabel="relative error", logx=True)
probe = np.linspace(0, 1, 257)
svg_heatmap(perf.indicator(probe[:, None], probe[None, :]).astype(float),
            OUT / "random_perforations_geometry.svg", title="perforations")
print(f"plots written to {OUT}")

"""Robustness of the mean-continuity multiscale method to mesh/perforation
intersections.

Two geometries differ only by a half-period shift of a periodic disc
lattice: unshifted, no coarse edge touches a disc (best case); shifted,
every interior coarse edge cuts through disc centers (worst case). The
classical multiscale method with affine edge data degrades badly on the
shifted geometry, while the edge-average (nonconforming) variant is nearly
unaffected.

Runtime: a few seconds (two 160^2 penalized reference solves).
"""

import numpy as np

from randpde import (CoarseMesh, baseline_solve, build_cr_space, build_perforations,
                     compute_errors, msfem_solve, reference_solve)

EPSILON, RADIUS_FACTOR = 0.1, 0.2
H_COARSE = 0.2
FINE_N = 32
REFERENCE_N = 160  # = m * FINE_N: errors against the local grids' own resolution

f_one = lambda x, y: np.ones_like(x)
mesh = CoarseMesh(int(round(1 / H_COARSE)))

print(f"{'geometry':>10} {'method':>8} {'L2 %':>7} {'H1 %':>7}")
results = {}
for tag, kind in (("unshifted", "periodic_discs"), ("shifted", "shifted_periodic_discs")):
    perf = build_perforations(kind, epsilon=EPSILON, radius_factor=RADIUS_FACTOR)
    ref = reference_solve(perf, f_one, REFERENCE_N)
    space = build_cr_space(mesh, perf, fine_n=FINE_N)
    for method, solution in (
            ("edge-avg", msfem_solve(space, f_one)),
            ("affine", baseline_solve(mesh, perf, f_one, "msfem_linear",
                                      with_bubbles=True, fine_n=FINE_N))):
        l2, h1 = compute_errors(solution, ref)
        results[(tag, method)] = (l2, h1)
        print(f"{tag:>10} {method:>8} {100 * l2:>7.1f} {100 * h1:>7.1f}")

drop_affine = 100 * (results[("shifted", "affine")][0] - results[("unshifted", "affine")][0])
drop_edge = 100 * (results[("shifted", "edge-avg")][0] - results[("unshifted", "edge-avg")][0])
print(f"\nL2 degradation, affine edges:   {drop_affine:+.1f} points")
print(f"L2 degradation, edge averages:  {drop_edge:+.1f} points")

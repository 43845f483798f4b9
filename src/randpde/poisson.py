"""Penalized global Poisson solves on the (possibly perforated) unit square.

The Dirichlet problem on the perforated domain is replaced by
int grad(u).grad(v) + kappa int_B u v = int f v over H^1_0 of the full
square, with kappa large; u then vanishes inside the perforations up to
O(1/kappa) and the whole square can be meshed uniformly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResolutionWarning
from .femcore import SquareGrid, cg_spd, multigrid_preconditioner, square_grid

DEFAULT_KAPPA_SCALE = 1e8


def default_kappa(h: float) -> float:
    return DEFAULT_KAPPA_SCALE / (h * h)


def check_resolution(perf, h: float, strict: bool, context: str) -> list[str]:
    """Warn (or raise, in strict mode) when fewer than 4 cells span the
    smallest perforation; returns the diagnostics."""
    feature = perf.smallest_feature()
    notes = []
    if np.isfinite(feature) and feature / h < 4.0:
        msg = (f"{context}: smallest perforation of {perf.describe()} spans "
               f"{feature / h:.2f} < 4 cells at h={h:g}")
        notes.append(msg)
        if strict:
            raise ParameterError(msg)
        warnings.warn(msg, ResolutionWarning, stacklevel=3)
    return notes


@dataclass(frozen=True)
class FineSolution:
    """Nodal values of the penalized reference solve on the global fine grid."""

    fine_n: int
    values: np.ndarray  # (fine_n + 1, fine_n + 1), indexed [ix, iy]
    kappa: float
    mask: np.ndarray    # (fine_n, fine_n) bool, True inside perforations

    def __post_init__(self):
        for name in ("values", "mask"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def h(self) -> float:
        return 1.0 / self.fine_n

    def value_at_center(self) -> float:
        mid = self.fine_n // 2
        return float(self.values[mid, mid])

    def max_inside_perforations(self) -> float:
        """Largest |u| at nodes whose four surrounding cells are all masked."""
        m = self.mask
        interior = m[:-1, :-1] & m[1:, :-1] & m[1:, 1:] & m[:-1, 1:]
        if not interior.any():
            return 0.0
        return float(np.abs(self.values[1:-1, 1:-1][interior]).max())

    def l2_norm(self) -> float:
        grid = square_grid(self.fine_n)
        v = self.values.reshape(1, -1)
        return float(np.sqrt(grid.l2_products(v, ~self.mask, self.h)[0, 0]))

    def h1_seminorm(self) -> float:
        grid = square_grid(self.fine_n)
        v = self.values.reshape(1, -1)
        return float(np.sqrt(grid.energy_products(v, ~self.mask)[0, 0]))


def reference_solve(perf, f, fine_n: int, kappa: float | None = None,
                    tol: float = 1e-10, strict: bool = False) -> FineSolution:
    """Bilinear FEM solve of the penalized problem on the fine_n^2 grid.

    f is a vectorized callable f(x, y); homogeneous Dirichlet data on the
    outer boundary is imposed strongly. The CG on the interior nodes is
    preconditioned by one Galerkin multigrid V-cycle (Jacobi when fine_n
    cannot coarsen to a small enough grid, see `multigrid_preconditioner`).
    """
    if fine_n < 2:
        raise ParameterError("fine_n must be >= 2")
    h = 1.0 / fine_n
    if kappa is None:
        kappa = default_kappa(h)
    check_resolution(perf, h, strict, "reference_solve")

    grid = SquareGrid(fine_n)  # uncached: its full Laplacian dies with the solve
    cx, cy = grid.cell_centers((0.0, 0.0), h)
    mask = perf.indicator(cx, cy).reshape(fine_n, fine_n)

    K = grid.laplace() + grid.penalty_mass(mask, kappa, h)
    fc = np.asarray(f(cx, cy), dtype=float)
    if fc.ndim == 0:
        fc = np.full(fine_n * fine_n, float(fc))
    b = grid.load_vector(fc, np.ones_like(mask, dtype=bool), h)

    fixed = grid.boundary_nodes(("S", "E", "N", "W"))
    free = np.setdiff1d(np.arange(grid.nn), fixed, assume_unique=False)
    Kff = K[free][:, free].tocsr()
    del K  # free the full matrix before the multigrid hierarchy is built
    x_free, _, _ = cg_spd(Kff, b[free], tol=tol,
                          preconditioner=multigrid_preconditioner(Kff, fine_n))
    values = np.zeros(grid.nn)
    values[free] = x_free
    return FineSolution(fine_n=fine_n, values=values.reshape(fine_n + 1, fine_n + 1),
                        kappa=kappa, mask=mask)

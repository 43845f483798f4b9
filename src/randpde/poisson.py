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
from .femcore import (SIDES, load_vector, multigrid_preconditioner, penalized_diagonals,
                      square_grid)
from .grid import cg_spd
from .perforations import cell_centres, cell_mask

DEFAULT_KAPPA_SCALE = 1e8


def default_kappa(h: float) -> float:
    return DEFAULT_KAPPA_SCALE / (h * h)


def under_resolution(perf, n: int) -> str | None:
    """The message saying that cells of width 1/n put fewer than 4 cells
    across the smallest perforation, or None when they put at least 4."""
    cells = perf.smallest_feature() * n
    if np.isfinite(cells) and cells < 4.0:
        return (f"h=1/{n} under-resolves {perf.describe()}: {cells:.2f} < 4 cells "
                f"across the smallest perforation")
    return None


def cell_values(f, n: int) -> np.ndarray:
    """f at the n x n cell centres, (n, n) read-only: the reference's load
    samples, and every MsFEM coarse load's at n = m fine_n."""
    c = cell_centres(n)
    fc = np.asarray(f(*np.broadcast_arrays(c[:, None], c[None, :])), dtype=float)
    return np.broadcast_to(fc, (n, n))


@dataclass(frozen=True)
class FineSolution:
    """Nodal values of the penalized reference solve on the global fine grid."""

    fine_n: int
    values: np.ndarray  # (fine_n + 1, fine_n + 1), indexed [ix, iy]
    mask: np.ndarray    # (fine_n, fine_n) bool, True inside perforations

    def __post_init__(self):
        self.values.flags.writeable = self.mask.flags.writeable = False

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

    def h1_seminorm(self) -> float:
        grid = square_grid(self.fine_n)
        v = self.values.reshape(1, -1)
        return float(np.sqrt(grid.energy_products(v, ~self.mask)[0, 0]))


def reference_solve(perf, f, fine_n: int) -> FineSolution:
    """Bilinear FEM solve of the penalized problem on the fine_n^2 grid,
    with kappa = 1e8 / h^2.

    f is a vectorized callable f(x, y) sampled by `cell_values`, the mask is
    `cell_mask`: an MsFEM level with m fine_n = fine_n shares both, and h.
    Homogeneous Dirichlet data on the outer boundary is imposed strongly. The
    operator on the interior nodes is held as its nine diagonals
    (`penalized_diagonals`), with no coupling to the boundary, whose data is
    zero. The CG runs to tolerance 1e-10, preconditioned by one Galerkin
    multigrid V-cycle (`multigrid_preconditioner`), whatever the parity of
    fine_n. An under-resolved perforation is a ResolutionWarning, never an
    error: refusing one is the runner's choice.
    """
    if fine_n < 2:
        raise ParameterError("fine_n must be >= 2")
    h = 1.0 / fine_n
    note = under_resolution(perf, fine_n)
    if note:
        warnings.warn(note, ResolutionWarning, stacklevel=2)

    mask = cell_mask(perf, fine_n)
    K = penalized_diagonals(fine_n, mask, default_kappa(h), h, SIDES)
    load = load_vector(cell_values(f, fine_n).ravel(), np.ones_like(mask), h)
    b = load.reshape(fine_n + 1, fine_n + 1)[1:-1, 1:-1].ravel()
    del load
    x_free, _, _ = cg_spd(K, b, tol=1e-10, preconditioner=multigrid_preconditioner(K, fine_n))
    values = np.zeros((fine_n + 1, fine_n + 1))
    values[1:-1, 1:-1] = x_free.reshape(fine_n - 1, fine_n - 1)
    return FineSolution(fine_n=fine_n, values=values, mask=mask)

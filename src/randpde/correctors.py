"""Periodic corrector problems and the homogenized tensor on the truncated box.

For a coefficient field A on the periodic n x n box and a direction p, the
corrector w_p solves -div[A (p + grad w_p)] = 0 with periodic boundary
conditions and zero mean. Averaging the flux A (e_j + grad w_j) over the box
yields the (random, truncated) homogenized tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .fields import CoefficientField
from .grid import periodic_grid, pinned_factorization, solve_singular_system

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


@dataclass(frozen=True)
class CorrectorSolution:
    """Nodal values of one corrector on the periodic fine grid (mean zero)."""

    n: int
    r: int
    p: np.ndarray
    values: np.ndarray
    iterations: int
    residual: float
    method: str = "cg"

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", values)


def solve_correctors(field: CoefficientField, directions, r: int, tol: float = 1e-9,
                     method: str = "cg") -> tuple[CorrectorSolution, ...]:
    """Galerkin solutions of the periodic corrector problems for several
    directions, from one stiffness assembly.

    The "cg" method is preconditioned by the exact inverse of the stiffness
    of the constant medium with the field's mean cell matrix, applied by FFT,
    so its iteration count does not grow with the grid. The "direct" method
    factorizes the stiffness once for all directions.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    grid = periodic_grid(field.n, r)
    K = grid.assemble_stiffness(field.cells)
    precondition = grid.constant_medium_solver(field.cells.mean(axis=(0, 1)))
    factorization = pinned_factorization(K) if method == "direct" else None
    out = []
    for p in directions:
        p = np.asarray(p, dtype=float)
        b = grid.corrector_rhs(field.cells, p)
        w, iterations, residual = solve_singular_system(
            K, b, tol=tol, method=method, preconditioner=precondition,
            factorization=factorization)
        out.append(CorrectorSolution(n=field.n, r=r, p=p, values=w, iterations=iterations,
                                     residual=residual, method=method))
    return tuple(out)


def solve_corrector(field: CoefficientField, p, r: int, tol: float = 1e-9,
                    method: str = "cg") -> CorrectorSolution:
    """Galerkin solution of the periodic corrector problem for direction p."""
    return solve_correctors(field, (p,), r, tol=tol, method=method)[0]


def homogenized_tensor(field: CoefficientField, correctors) -> np.ndarray:
    """Volume-averaged flux tensor: column j is (1/|Q_N|) int A (p_j + grad w_j).

    The correctors must have been solved on the same grid as the field; the
    usual call passes the two canonical directions e_1, e_2 so the result is
    the full 2x2 homogenized tensor.
    """
    correctors = list(correctors)
    if not correctors:
        raise ParameterError("need at least one corrector")
    grid = periodic_grid(field.n, correctors[0].r)
    tensor = np.zeros((2, len(correctors)))
    for j, w in enumerate(correctors):
        if w.n != field.n or w.r != correctors[0].r:
            raise GridMismatchError(
                f"corrector grid ({w.n}, {w.r}) does not match field "
                f"({field.n}, {correctors[0].r})")
        tensor[:, j] = grid.average_flux(field.cells, w.values, w.p)
    return tensor


def energy_tensor(field: CoefficientField, correctors) -> np.ndarray:
    """Same tensor via the Dirichlet-energy form (algebraically identical
    for symmetric A and exactly solved correctors); used as a cross-check."""
    correctors = list(correctors)
    grid = periodic_grid(field.n, correctors[0].r)
    k = len(correctors)
    out = np.zeros((k, k))
    for i, wi in enumerate(correctors):
        for j, wj in enumerate(correctors):
            out[i, j] = grid.energy_product(field.cells, wi.values, wi.p,
                                            wj.values, wj.p)
    return out


def homogenize(field: CoefficientField, r: int, tol: float = 1e-9,
               method: str = "cg") -> tuple[np.ndarray, tuple[CorrectorSolution, CorrectorSolution]]:
    """Solve both canonical correctors and return (tensor, (w_1, w_2))."""
    ws = solve_correctors(field, (E1, E2), r, tol=tol, method=method)
    return homogenized_tensor(field, ws), ws


def check_voigt_reuss(field: CoefficientField, tensor: np.ndarray) -> bool:
    """True when the tensor eigenvalues sit inside the harmonic/arithmetic
    mean bounds of the field's cells (up to a relative slack of 1e-7)."""
    lo, hi = field.voigt_reuss_bounds()
    eigs = np.linalg.eigvalsh(0.5 * (tensor + tensor.T))
    slack = 1e-7 * hi
    return bool(eigs[0] >= lo - slack and eigs[-1] <= hi + slack)

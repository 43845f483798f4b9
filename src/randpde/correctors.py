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


# DOFs times right-hand sides of one stacked corrector PCG: `homogenize_fields`
# solves as many fields together as fit (at least one).
CHUNK_DOFS = 1 << 14


def _solve_stack(cells: np.ndarray, directions, r: int, tol: float, method: str) -> list:
    """Correctors of a (k, n, n, 2, 2) stack of cells, one (w, iterations,
    residuals) per direction with w of shape (k, ndof), from one
    block-diagonal assembly and one stacked PCG (or, for one field, one LU)
    per direction."""
    grid = periodic_grid(cells.shape[1], r)
    K = grid.assemble_stiffness(cells)
    precondition = grid.constant_medium_solver(cells.mean(axis=(1, 2)))
    factorization = pinned_factorization(K) if method == "direct" else None
    return [solve_singular_system(K, grid.corrector_rhs(cells, p), tol=tol, method=method,
                                  preconditioner=precondition, factorization=factorization)
            for p in directions]


def _solutions(field: CoefficientField, r: int, directions, solved, row: int,
               method: str) -> tuple[CorrectorSolution, ...]:
    """The `CorrectorSolution`s of stack row `row` of `_solve_stack`'s output."""
    return tuple(CorrectorSolution(n=field.n, r=r, p=p, values=w[row],
                                   iterations=int(iterations[row]),
                                   residual=float(residual[row]), method=method)
                 for p, (w, iterations, residual) in zip(directions, solved))


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
    directions = [np.asarray(p, dtype=float) for p in directions]
    solved = _solve_stack(field.cells[None], directions, r, tol, method)
    return _solutions(field, r, directions, solved, 0, method)


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


def homogenize_fields(fields, r: int, tol: float = 1e-9, method: str = "cg"):
    """Yield (tensor, (w_1, w_2)) for each field in turn, as `homogenize`
    gives it, with the same bits.

    The fields share one box size. They are solved in chunks of at most
    CHUNK_DOFS // ndof fields (one field for the direct method): per chunk
    one block-diagonal assembly and one stacked PCG per canonical direction,
    so only one chunk's correctors are alive at a time.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    fields = list(fields)
    if len({f.n for f in fields}) > 1:
        raise GridMismatchError("fields of one batch must share the box size n")
    chunk = 1 if method == "direct" or not fields else max(1, CHUNK_DOFS // (fields[0].n * r) ** 2)
    for start in range(0, len(fields), chunk):
        members = fields[start:start + chunk]
        solved = _solve_stack(np.stack([f.cells for f in members]), (E1, E2), r, tol, method)
        for row, field in enumerate(members):
            ws = _solutions(field, r, (E1, E2), solved, row, method)
            yield homogenized_tensor(field, ws), ws


def homogenize(field: CoefficientField, r: int, tol: float = 1e-9,
               method: str = "cg") -> tuple[np.ndarray, tuple[CorrectorSolution, CorrectorSolution]]:
    """Solve both canonical correctors and return (tensor, (w_1, w_2)): the
    one-field case of `homogenize_fields`."""
    return next(homogenize_fields([field], r, tol=tol, method=method))


def check_voigt_reuss(field: CoefficientField, tensor: np.ndarray) -> bool:
    """True when the tensor eigenvalues sit inside the harmonic/arithmetic
    mean bounds of the field's cells (up to a relative slack of 1e-7)."""
    lo, hi = field.voigt_reuss_bounds()
    eigs = np.linalg.eigvalsh(0.5 * (tensor + tensor.T))
    slack = 1e-7 * hi
    return bool(eigs[0] >= lo - slack and eigs[-1] <= hi + slack)

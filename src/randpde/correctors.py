"""Periodic corrector problems and the homogenized tensor on the truncated box.

For a coefficient field A on the periodic n x n box and each canonical
direction e_j, the corrector w_j solves -div[A (e_j + grad w_j)] = 0 with
periodic boundary conditions and zero mean. Averaging the flux
A (e_j + grad w_j) over the box yields the (random, truncated) homogenized
tensor, read off the solve's loads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .fields import CoefficientField
from .grid import periodic_grid, pinned_factorization, rowdot, solve_singular_system

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


@dataclass(frozen=True)
class CorrectorSolution:
    """Nodal values of the corrector in the direction p (E1 or E2) on the
    periodic fine grid (mean zero)."""

    n: int
    r: int
    p: np.ndarray
    values: np.ndarray
    iterations: int
    residual: float
    method: str = "cg"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


# DOFs times right-hand sides of one stacked corrector PCG: `homogenize_fields`
# solves as many fields together as fit (at least one).
CHUNK_DOFS = 1 << 14


def _solve_stack(cells: np.ndarray, r: int, tol: float, method: str):
    """The loads and correctors, each (k, 2, ndof), of a (k, n, n, 2, 2) stack
    of cells in the directions e_1 and e_2, and per stack row the pair of its
    `CorrectorSolution`s: one block-diagonal assembly, then per direction one
    PCG preconditioned by the FFT inverse of each field's mean constant
    medium (its iterations do not grow with the grid) or, for one field, LU."""
    if tol <= 0:
        raise ParameterError("tol must be positive")
    n = cells.shape[1]
    grid = periodic_grid(n, r)
    K = grid.assemble_stiffness(cells)
    precondition = grid.constant_medium_solver(cells.mean(axis=(1, 2)))
    factorization = pinned_factorization(K) if method == "direct" else None
    loads = [grid.corrector_rhs(cells, p) for p in (E1, E2)]
    solved = [solve_singular_system(K, b, tol=tol, method=method, preconditioner=precondition,
                                    factorization=factorization) for b in loads]
    ws, iterations, residuals = (np.stack(out, axis=1) for out in zip(*solved))
    solutions = [tuple(CorrectorSolution(n=n, r=r, p=p, values=ws[row, j],
                                         iterations=int(iterations[row, j]),
                                         residual=float(residuals[row, j]), method=method)
                       for j, p in enumerate((E1, E2)))
                 for row in range(len(cells))]
    return np.stack(loads, axis=1), ws, solutions


def _flux_tensors(cells: np.ndarray, loads: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """(k, 2, 2) tensors of a (k, n, n, 2, 2) stack of cells: column j is
    (1/|Q_N|) int A (e_j + grad w_j) for the correctors ws (k, 2, ndof).

    With b_i the load of e_i (loads is (k, 2, ndof)), a Q1 corrector w has
    int e_i.A grad w = -b_i.w for symmetric A, so entry (i, j) is
    <A>_ij - (b_i.w_j) / n^2. `rowdot` takes each row's dot products
    alone, so a row's bits do not depend on the stack it is solved in, nor
    on the BLAS thread count.
    """
    flux = rowdot(loads[:, :, None], ws[:, None])
    return cells.mean(axis=(1, 2)) - flux / cells.shape[1] ** 2


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
    so only one chunk's correctors are alive at a time. The chunk's tensors
    come from the loads of those PCGs in one contraction (`_flux_tensors`).
    """
    fields = list(fields)
    if len({f.n for f in fields}) > 1:
        raise GridMismatchError("fields of one batch must share the box size n")
    chunk = 1 if method == "direct" or not fields else max(1, CHUNK_DOFS // (fields[0].n * r) ** 2)
    for start in range(0, len(fields), chunk):
        cells = np.stack([f.cells for f in fields[start:start + chunk]])
        loads, ws, solutions = _solve_stack(cells, r, tol, method)
        yield from zip(_flux_tensors(cells, loads, ws), solutions)


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

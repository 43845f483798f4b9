"""Square-grid Q1 building blocks shared by the reference solver and the
multiscale basis constructions: connectivity, element matrices, trace rows,
penalty assembly and masked energy products on an fn x fn cell grid, plus
the preconditioned CG and the Galerkin multigrid V-cycle of the reference
solve."""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .grid import KXX, KYY, MASS

KLAP = KXX + KYY
SIDES = ("S", "E", "N", "W")


class SquareGrid:
    """Connectivity and cached Laplace stiffness for a square Q1 grid."""

    def __init__(self, fn: int):
        self.fn = fn
        self.nn = (fn + 1) ** 2
        ex, ey = np.meshgrid(np.arange(fn), np.arange(fn), indexing="ij")
        ex = ex.ravel()
        ey = ey.ravel()
        stride = fn + 1
        self.elem_nodes = np.stack([ex * stride + ey,
                                    (ex + 1) * stride + ey,
                                    (ex + 1) * stride + ey + 1,
                                    ex * stride + ey + 1], axis=1)
        self.cell_xy = (ex, ey)
        self._k0 = None

    def laplace(self) -> sp.csr_matrix:
        if self._k0 is None:
            # int32 COO indices halve the transient of a large (reference)
            # grid's assembly; the CSR built from them is the same
            en = self.elem_nodes.astype(np.int32)
            rows = np.repeat(en, 4, axis=1).ravel()
            cols = np.tile(en, (1, 4)).ravel()
            data = np.tile(KLAP.ravel(), len(en))
            self._k0 = sp.coo_matrix((data, (rows, cols)),
                                     shape=(self.nn, self.nn)).tocsr()
        return self._k0

    def penalty_mass(self, mask: np.ndarray, kappa: float, h: float) -> sp.csr_matrix:
        """kappa * int_{masked cells} u v, exact Q1 mass on masked cells."""
        masked = np.flatnonzero(mask.ravel())
        if masked.size == 0:
            return sp.csr_matrix((self.nn, self.nn))
        en = self.elem_nodes[masked]
        rows = np.repeat(en, 4, axis=1).ravel()
        cols = np.tile(en, (1, 4)).ravel()
        data = np.tile((kappa * h * h * MASS).ravel(), masked.size)
        return sp.coo_matrix((data, (rows, cols)), shape=(self.nn, self.nn)).tocsr()

    def side_nodes(self, side: str) -> np.ndarray:
        fn = self.fn
        stride = fn + 1
        idx = np.arange(fn + 1)
        if side == "S":
            return idx * stride
        if side == "N":
            return idx * stride + fn
        if side == "W":
            return idx
        if side == "E":
            return fn * stride + idx
        raise ValueError(f"unknown side {side!r}")

    def trace_row(self, side: str, h: float) -> np.ndarray:
        """Composite-trapezoid weights of int_side u over the fine trace."""
        row = np.zeros(self.nn)
        nodes = self.side_nodes(side)
        row[nodes] = h
        row[nodes[0]] = 0.5 * h
        row[nodes[-1]] = 0.5 * h
        return row

    def boundary_nodes(self, sides) -> np.ndarray:
        if not sides:
            return np.array([], dtype=int)
        return np.unique(np.concatenate([self.side_nodes(s) for s in sides]))

    def cell_centers(self, origin: tuple[float, float], h: float):
        ex, ey = self.cell_xy
        return origin[0] + (ex + 0.5) * h, origin[1] + (ey + 0.5) * h

    def load_vector(self, cell_values: np.ndarray, keep: np.ndarray, h: float) -> np.ndarray:
        """int f v with f constant per cell (midpoint values), restricted to
        kept cells; exact for bilinear v given the per-cell constants."""
        w = np.where(keep.ravel(), cell_values.ravel(), 0.0) * (h * h / 4.0)
        return np.bincount(self.elem_nodes.ravel(),
                           weights=np.repeat(w, 4), minlength=self.nn)

    def energy_products(self, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Gram matrix of grad-grad products over kept cells (h-independent)."""
        ve = values[:, self.elem_nodes]
        ve = ve[:, keep.ravel(), :]
        return np.einsum("aei,ij,bej->ab", ve, KLAP, ve,
                         optimize=_gram_path(*ve.shape[:2]))

    def l2_products(self, values: np.ndarray, keep: np.ndarray, h: float) -> np.ndarray:
        ve = values[:, self.elem_nodes]
        ve = ve[:, keep.ravel(), :]
        return h * h * np.einsum("aei,ij,bej->ab", ve, MASS, ve,
                                 optimize=_gram_path(*ve.shape[:2]))


@lru_cache(maxsize=1024)
def _gram_path(rows: int, cells: int) -> list:
    """Contraction order of a masked Gram product over `rows` functions and
    `cells` kept cells: the path numpy's greedy search (`optimize=True`)
    picks, searched once per shape instead of on every call. No single path
    will do: the search contracts the two value arrays first from about 32
    cells on, and the element matrix first below that, and the two orders
    differ at round-off."""
    ve = np.empty((rows, cells, 4))
    return np.einsum_path("aei,ij,bej->ab", ve, KLAP, ve, optimize="greedy")[0]


@lru_cache(maxsize=8)
def square_grid(fn: int) -> SquareGrid:
    """Shared grid for the local and error-norm computations; a one-off
    large grid (the reference solve's) is built uncached instead, so its
    Laplacian is freed with it."""
    return SquareGrid(fn)


def cg_spd(K: sp.csr_matrix, b: np.ndarray, tol: float = 1e-10,
           maxiter: int | None = None,
           preconditioner=None) -> tuple[np.ndarray, int, float]:
    """Preconditioned CG for a symmetric positive definite system.

    `preconditioner` maps a residual to the search update and must be
    symmetric positive definite (default: the inverse diagonal of K).
    Returns (x, iterations, relative_residual)."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    if maxiter is None:
        maxiter = max(10000, 40 * int(np.sqrt(K.shape[0])))
    if preconditioner is None:
        inv_diag = 1.0 / K.diagonal()
        preconditioner = lambda r: inv_diag * r
    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        q = K @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return x, it, rnorm / bnorm
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"CG did not reach tol={tol:g} within {maxiter} iterations",
                      iterations=maxiter, residual=rnorm / bnorm)


# Galerkin multigrid on the interior nodes of a square grid: coarsen while the
# cell count is even and above MG_COARSEST; factorize the coarsest level when
# it has at most MG_DIRECT_MAX cells per side.
MG_COARSEST = 32
MG_DIRECT_MAX = 64
MG_OMEGA = 0.8  # damped-Jacobi weight of the one pre- and one post-sweep


def _interpolation_1d(fn: int) -> sp.csr_matrix:
    """Linear interpolation from the fn/2 - 1 interior nodes of a grid with
    fn/2 cells to the fn - 1 interior nodes of one with fn cells (zero
    Dirichlet ends); coarse node j + 1 sits on fine node 2(j + 1)."""
    nc = fn // 2 - 1
    j = np.arange(nc)
    rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
    data = np.concatenate([np.ones(nc), np.full(2 * nc, 0.5)])
    return sp.csr_matrix((data, (rows, np.tile(j, 3))), shape=(fn - 1, nc))


def _v_cycle(levels: tuple, coarse_lu, b: np.ndarray) -> np.ndarray:
    """One V-cycle from a zero initial guess: damped-Jacobi pre-sweep,
    Galerkin coarse correction, damped-Jacobi post-sweep; symmetric, so it
    can precondition CG."""
    if not levels:
        return coarse_lu.solve(b)
    A, w_inv_diag, P, R = levels[0]
    x = w_inv_diag * b
    x += P @ _v_cycle(levels[1:], coarse_lu, R @ (b - A @ x))
    x += w_inv_diag * (b - A @ x)
    return x


def multigrid_preconditioner(A: sp.csr_matrix, fn: int):
    """V-cycle preconditioner for an SPD operator A on the (fn - 1)^2 interior
    nodes of a square grid with fn cells per side, ordered as
    `SquareGrid` numbers them (x index slow).

    Prolongation is P = kron(P1, P1) with P1 1D linear interpolation,
    restriction R = P^T and coarse operators R A P, so a penalty jump in A
    carries over to every level (Alcouffe, Brandt, Dendy & Painter, SIAM J.
    Sci. Stat. Comput. 2, 1981). Returns None when the coarsest reachable
    grid has more than MG_DIRECT_MAX cells per side (an odd fn above it
    cannot coarsen at all); the caller then keeps Jacobi preconditioning.

    The cycle is a module-level function bound with `partial`: a recursive
    closure would form a reference cycle and keep the hierarchy alive until
    the cyclic garbage collector runs.
    """
    coarsest = fn
    while coarsest % 2 == 0 and coarsest > MG_COARSEST:
        coarsest //= 2
    if coarsest > MG_DIRECT_MAX:
        return None
    levels = []
    while fn > coarsest:
        p1 = _interpolation_1d(fn)
        P = sp.kron(p1, p1, format="csr")
        R = P.T.tocsr()
        levels.append((A, MG_OMEGA / A.diagonal(), P, R))
        A = (R @ A @ P).tocsr()
        fn //= 2
    return partial(_v_cycle, tuple(levels), spla.splu(A.tocsc()))

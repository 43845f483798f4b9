"""Square-grid Q1 building blocks shared by the reference solver and the
multiscale basis constructions: connectivity, element matrices, trace rows,
penalty assembly and masked energy products on an fn x fn cell grid, plus
the Galerkin multigrid V-cycle that preconditions the reference solve's CG
(`grid.cg_spd`)."""

from __future__ import annotations

from functools import cached_property, lru_cache, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import CORNERS, KXX, KYY, MASS, assemble

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

    @cached_property
    def _laplace(self) -> sp.csr_matrix:
        return assemble([(self.elem_nodes, KLAP)], self.nn)

    def penalized(self, mask: np.ndarray, kappa: float, h: float) -> sp.csr_matrix:
        """Laplace stiffness (cached per grid) plus kappa * int_{masked cells} u v,
        the exact Q1 mass on the masked cells."""
        masked = self.elem_nodes[mask.ravel()]
        return self._laplace + assemble([(masked, kappa * h * h * MASS)], self.nn)

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

    def free_nodes(self, sides) -> np.ndarray:
        """Boolean mask of the nodes off the given sides."""
        free = np.ones(self.nn, dtype=bool)
        for side in sides:
            free[self.side_nodes(side)] = False
        return free

    def cell_centers(self, origin: tuple[float, float], h: float):
        ex, ey = self.cell_xy
        return origin[0] + (ex + 0.5) * h, origin[1] + (ey + 0.5) * h

    def load_vector(self, cell_values: np.ndarray, keep: np.ndarray, h: float) -> np.ndarray:
        """int f v with f constant per cell (midpoint values), restricted to
        kept cells; exact for bilinear v given the per-cell constants.
        cell_values (..., fn * fn) and keep (..., fn, fn) give (..., nn)."""
        w = np.where(keep.reshape(cell_values.shape), cell_values, 0.0) * (h * h / 4.0)
        w = w.reshape(-1, w.shape[-1])
        nodes = self.elem_nodes.ravel() + self.nn * np.arange(len(w))[:, None]
        out = np.bincount(nodes.ravel(), weights=np.repeat(w, 4, axis=1).ravel(),
                          minlength=len(w) * self.nn)
        return out.reshape(*cell_values.shape[:-1], self.nn)

    def energy_products(self, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Gram matrices of grad-grad products over kept cells (h-independent):
        values (..., k, nn) and keep (..., fn, fn) give (..., k, k)."""
        return self._gram(values, keep, KLAP)

    def l2_products(self, values: np.ndarray, keep: np.ndarray, h: float) -> np.ndarray:
        """Gram matrices of L2 products over kept cells, batched as
        `energy_products`."""
        return h * h * self._gram(values, keep, MASS)

    def _gram(self, values: np.ndarray, keep: np.ndarray, element: np.ndarray) -> np.ndarray:
        """sum over kept cells of u_c . element . v_c, where u_c and v_c hold
        two rows' values at the four corners of cell c. The corners are four
        strided views of the node grid, so nothing is gathered; corner a adds
        one batched matmul of sum_b element[a, b] v_b (zeroed on dropped
        cells) with u_a."""
        fn = self.fn
        nodes = values.reshape(*values.shape[:-1], fn + 1, fn + 1)
        corners = [nodes[..., dx:dx + fn, dy:dy + fn] for dx, dy in CORNERS]
        kept = keep[..., None, :, :]
        gram = 0.0
        for a in range(4):
            w = element[a, 0] * corners[0]
            for b in range(1, 4):
                w += element[a, b] * corners[b]
            w *= kept
            w = w.reshape(*w.shape[:-2], -1)
            gram = gram + w @ corners[a].reshape(w.shape).swapaxes(-1, -2)
        return gram


@lru_cache(maxsize=8)
def square_grid(fn: int) -> SquareGrid:
    """Shared grid for the local and error-norm computations; a one-off
    large grid (the reference solve's) is built uncached instead, so its
    Laplacian is freed with it."""
    return SquareGrid(fn)


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

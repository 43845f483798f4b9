"""Periodic bilinear-quadrilateral FEM infrastructure on the n x n box.

The box is split into n*r x n*r square elements (r fine cells per unit cell),
with periodic identification of opposite faces, so elements and DOFs both
number (n*r)^2. Coefficients are constant per unit cell, hence constant per
element, and all element integrals below are exact for that data.

For a constant medium the stiffness matrix is circulant: the FFT
diagonalizes it, so `PeriodicGrid.constant_medium_solver` inverts it exactly.
That inverse, for the mean cell matrix of a field, preconditions the
corrector CG with an iteration count independent of the grid (Moulinec &
Suquet, CMAME 157, 1998; Ladecky et al., Appl. Math. Comput. 446, 2023).
`cg_spd` is the package's one CG loop: the corrector solves run it with the
constants projected out, the penalized reference solves of `poisson` without.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError, SolverError

# Exact element matrices for Q1 on a square (size-independent in 2D):
# K_e = a11*KXX + a22*KYY + a12*(KXY + KXY^T), node order SW, SE, NE, NW.
KXX = np.array([[2, -2, -1, 1],
                [-2, 2, 1, -1],
                [-1, 1, 2, -2],
                [1, -1, -2, 2]], dtype=float) / 6.0
KYY = np.array([[2, 1, -1, -2],
                [1, 2, -2, -1],
                [-1, -2, 2, 1],
                [-2, -1, 1, 2]], dtype=float) / 6.0
KXY = np.array([[1, 1, -1, -1],
                [-1, -1, 1, 1],
                [-1, -1, 1, 1],
                [1, 1, -1, -1]], dtype=float) / 4.0
# Integrals of shape-function gradients over a square of side h: h/2 * these.
GX = np.array([-1.0, 1.0, 1.0, -1.0])
GY = np.array([-1.0, -1.0, 1.0, 1.0])
# Q1 mass matrix on a square of side h: h^2 * MASS.
MASS = np.array([[4, 2, 1, 2],
                 [2, 4, 2, 1],
                 [1, 2, 4, 2],
                 [2, 1, 2, 4]], dtype=float) / 36.0
# Grid offsets of the SW, SE, NE, NW corners from an element's SW node.
CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])


def assemble(stacks, n: int) -> sp.csr_matrix:
    """Sum element blocks into an n x n CSR matrix. Each stack is (dofs
    (E, k), blocks (E, k, k) or one (k, k) block for every element); entry
    (e, a, b) lands on row dofs[e, a] and column dofs[e, b]. Entries go, in
    stack order, into one preallocated int32-indexed COO list (no copies
    to concatenate), and scipy sums the duplicates in that order."""
    stacks = [(np.asarray(dofs), blocks) for dofs, blocks in stacks]
    size = sum(dofs.shape[0] * dofs.shape[1] ** 2 for dofs, _ in stacks)
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    data = np.empty(size)
    start = 0
    for dofs, blocks in stacks:
        e, k = dofs.shape
        entries = slice(start, start + e * k * k)
        rows[entries].reshape(e, k, k)[...] = dofs[:, :, None]
        cols[entries].reshape(e, k, k)[...] = dofs[:, None, :]
        data[entries].reshape(e, k, k)[...] = blocks
        start = entries.stop
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def element_stiffness(a11, a22, a12) -> np.ndarray:
    """Q1 element stiffness a11*KXX + a22*KYY + a12*(KXY + KXY^T) for scalar
    or per-element coefficients; shape (..., 4, 4)."""
    return (np.multiply.outer(a11, KXX) + np.multiply.outer(a22, KYY)
            + np.multiply.outer(a12, KXY + KXY.T))


class PeriodicGrid:
    """Uniform periodic quad grid with element-node connectivity and cell map."""

    def __init__(self, n: int, r: int):
        if n < 1 or r < 1:
            raise ParameterError(f"grid needs n >= 1 and r >= 1, got n={n}, r={r}")
        self.n = n
        self.r = r
        self.size = n * r
        self.h = 1.0 / r
        self.ndof = self.size ** 2

        g = self.size
        ex, ey = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
        ex = ex.ravel()
        ey = ey.ravel()
        exp = (ex + 1) % g
        eyp = (ey + 1) % g
        # node id (ix, iy) -> ix * g + iy; corners ordered SW, SE, NE, NW
        self.elem_nodes = np.stack([ex * g + ey,
                                    exp * g + ey,
                                    exp * g + eyp,
                                    ex * g + eyp], axis=1)
        self.elem_cell = (ex // r, ey // r)
        # rfft2 symbols of the constant-medium stiffness for a11, a22, a12 = 1
        self._unit_symbols = tuple(self._symbol(element_stiffness(*unit))
                                  for unit in np.eye(3))

    def _symbol(self, ke: np.ndarray) -> np.ndarray:
        """Eigenvalues of the circulant stiffness built from one element
        matrix ke, in numpy.fft.rfft2 layout over the (g, g) node array."""
        g = self.size
        stencil = np.zeros((g, g))
        for a in range(4):
            for b in range(4):
                dx, dy = CORNERS[b] - CORNERS[a]
                stencil[dx % g, dy % g] += ke[a, b]
        # the stencil is symmetric under d -> -d, so its transform is real
        return np.fft.rfft2(stencil).real

    def constant_medium_solver(self, a: np.ndarray):
        """Exact solver b -> mean-zero x with K x = b - mean(b), where K is the
        stiffness of the constant symmetric medium a, applied by FFT."""
        sxx, syy, sxy = self._unit_symbols
        symbol = a[0, 0] * sxx + a[1, 1] * syy + a[0, 1] * sxy
        symbol[0, 0] = np.inf  # drops the zero mode, the kernel of constants
        inverse = 1.0 / symbol
        g = self.size

        def solve(b: np.ndarray) -> np.ndarray:
            return np.fft.irfft2(np.fft.rfft2(b.reshape(g, g)) * inverse, s=(g, g)).ravel()
        return solve

    def element_coefficients(self, cells: np.ndarray) -> np.ndarray:
        """Per-element 2x2 coefficient matrices from cell-wise field values."""
        cx, cy = self.elem_cell
        return cells[cx, cy]

    @cached_property
    def _stiffness_pattern(self):
        """CSR pattern of the stiffness, (indices, indptr), and the CSR slot
        of every element-matrix entry (element, a, b), built once per grid.
        `assemble` sums duplicates in entry order, as `np.bincount` over the
        slots does."""
        en = self.elem_nodes
        pattern = assemble([(en, np.ones((4, 4)))], self.ndof)
        # the pattern's (row, col) keys ascend, so a binary search finds the
        # slot of every entry (e, a, b); slots take the pattern's index dtype
        pattern_rows = np.repeat(np.arange(self.ndof), np.diff(pattern.indptr))
        keys = en[:, :, None] * self.ndof + en[:, None, :]
        slot = np.searchsorted(pattern_rows * self.ndof + pattern.indices,
                               keys.ravel()).astype(pattern.indices.dtype)
        for arr in (pattern.indices, pattern.indptr, slot):
            arr.flags.writeable = False
        return pattern.indices, pattern.indptr, slot

    def assemble_stiffness(self, cells: np.ndarray) -> sp.csr_matrix:
        """Stiffness matrix for grad(v).A.grad(u) with element-constant A."""
        a = self.element_coefficients(cells)
        ke = element_stiffness(a[:, 0, 0], a[:, 1, 1], a[:, 0, 1])
        indices, indptr, slot = self._stiffness_pattern
        data = np.bincount(slot, weights=ke.ravel(), minlength=len(indices))
        return sp.csr_matrix((data, indices, indptr), shape=(self.ndof, self.ndof))

    def corrector_rhs(self, cells: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Load vector of -int grad(v).A.p (consistent with the stiffness).
        A p is taken once per unit cell and gathered per element."""
        cx, cy = self.elem_cell
        ap = (cells @ np.asarray(p, dtype=float))[cx, cy]
        fe = np.outer(ap[:, 0], GX)
        for c in range(4):  # by column: no second (E, 4) temporary on large boxes
            fe[:, c] += ap[:, 1] * GY[c]
        fe *= -0.5 * self.h
        return np.bincount(self.elem_nodes.ravel(), weights=fe.ravel(),
                           minlength=self.ndof)

    def element_gradient_integrals(self, w: np.ndarray) -> np.ndarray:
        """Per-element exact integral of grad(w), shape (n_elements, 2)."""
        we = w[self.elem_nodes]
        half_h = 0.5 * self.h
        return np.stack([we @ GX, we @ GY], axis=1) * half_h

    def average_flux(self, cells: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
        """(1/|Q_N|) int A (p + grad w) as a length-2 vector."""
        a = self.element_coefficients(cells)
        grads = self.element_gradient_integrals(w)
        p = np.asarray(p, dtype=float)
        flux = np.einsum("eij,ej->i", a, grads)
        flux += (a.sum(axis=0) @ p) * self.h ** 2
        return flux / self.n ** 2

    def energy_product(self, cells: np.ndarray,
                       w1: np.ndarray, p1: np.ndarray,
                       w2: np.ndarray, p2: np.ndarray) -> float:
        """(1/|Q_N|) int (p1 + grad w1)^T A (p2 + grad w2), exact quadrature."""
        a = self.element_coefficients(cells)
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        ke = element_stiffness(a[:, 0, 0], a[:, 1, 1], a[:, 0, 1])
        w1e = w1[self.elem_nodes]
        w2e = w2[self.elem_nodes]
        total = np.einsum("ei,eij,ej->", w1e, ke, w2e)
        g1 = self.element_gradient_integrals(w1)
        g2 = self.element_gradient_integrals(w2)
        total += np.einsum("eij,ej->i", a, g2) @ p1
        total += np.einsum("eij,ei->j", a, g1) @ p2
        total += (a.sum(axis=0) @ p2) @ p1 * self.h ** 2
        return float(total) / self.n ** 2


@lru_cache(maxsize=16)
def periodic_grid(n: int, r: int) -> PeriodicGrid:
    """Cached grid factory; grids are immutable after construction."""
    return PeriodicGrid(n, r)


def pinned_factorization(K: sp.csr_matrix):
    """LU factorization of K with its first DOF pinned to zero, which removes
    the kernel of constants; `solve_singular_system(method="direct")` reuses
    it for every right-hand side of the same K."""
    return spla.splu(K[1:, :][:, 1:].tocsc())


def cg_spd(K: sp.csr_matrix, b: np.ndarray, tol: float = 1e-10,
           maxiter: int | None = None, preconditioner=None,
           centre: bool = False) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients for K x = b, the one CG loop of
    both legs (periodic correctors and penalized references).

    K is symmetric positive definite, or with `centre` semidefinite with the
    constants as its kernel and b of mean zero; the residual is then
    projected to mean zero at every iteration. `preconditioner` maps a
    residual to the search update and must be symmetric positive definite
    (default: the inverse diagonal of K). The default `maxiter` is
    10000 + 50 sqrt(n). Returns (x, iterations, relative_residual).
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    if maxiter is None:
        maxiter = 10000 + int(50 * np.sqrt(K.shape[0]))
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
        if centre:
            r -= r.mean()  # project out the kernel of constants
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return x, it, rnorm / bnorm
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not reach tol={tol:g} within {maxiter} iterations "
        f"(relative residual {rnorm / bnorm:.3e})",
        iterations=maxiter, residual=rnorm / bnorm)


def solve_singular_system(K: sp.csr_matrix, b: np.ndarray, tol: float = 1e-9,
                          method: str = "cg", preconditioner=None, factorization=None):
    """Solve K x = b where K is SPD up to the 1D kernel of constants.

    Returns (x, iterations, relative_residual) with mean(x) = 0. The "cg"
    method is `cg_spd` on the centred b with the residual kept at mean zero.
    "direct" pins one DOF and solves with `factorization`, the
    `pinned_factorization(K)` (computed here when not given).
    """
    b = b - b.mean()
    if method == "direct":
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            return np.zeros_like(b), 0, 0.0
        lu = pinned_factorization(K) if factorization is None else factorization
        x = np.concatenate(([0.0], lu.solve(b[1:])))
        x -= x.mean()
        return x, 1, float(np.linalg.norm(K @ x - b)) / bnorm
    if method != "cg":
        raise ParameterError(f"unknown solver method {method!r}")
    x, iterations, residual = cg_spd(K, b, tol, preconditioner=preconditioner, centre=True)
    x -= x.mean()
    return x, iterations, residual

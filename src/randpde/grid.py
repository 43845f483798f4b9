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

The corrector layer also takes stacks: a (k, n, n, 2, 2) array of cells
assembles into one block-diagonal stiffness (`assemble_stiffness`), its loads
into a (k, ndof) array (`corrector_rhs`), and k mean cell matrices into one
stacked FFT inverse (`constant_medium_solver`), so `cg_spd` solves k samples
in one loop. `correctors.CHUNK_DOFS` bounds the DOFs times right-hand sides
of such a stack.
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
        # flat cell index of each element; `np.take` with it gathers a stack
        # of cells in C order, which cells[..., cx, cy, :, :] does not
        self._cell_of_element = (ex // r) * n + ey // r
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
        stiffness of the constant symmetric medium a, applied by FFT.

        `a` is one 2x2 matrix or a (k, 2, 2) stack of them. The solver takes
        b of shape (ndof,) or (k', ndof); `rows` picks the stack's matrices
        for the rows of b (all of them by default), and one stacked
        rfft2/irfft2 pair solves every row."""
        a = np.reshape(a, (-1, 2, 2))[:, :, :, None, None]
        sxx, syy, sxy = self._unit_symbols
        symbol = a[:, 0, 0] * sxx + a[:, 1, 1] * syy + a[:, 0, 1] * sxy
        symbol[:, 0, 0] = np.inf  # drops the zero mode, the kernel of constants
        inverse = 1.0 / symbol
        g = self.size

        def solve(b: np.ndarray, rows=slice(None)) -> np.ndarray:
            # rfft2 and irfft2 written as their two 1-D passes each, which
            # skips their argument handling and gives the same bits
            f = np.fft.fft(np.fft.rfft(b.reshape(-1, g, g), axis=-1), axis=-2)
            x = np.fft.irfft(np.fft.ifft(f * inverse[rows], axis=-2), n=g, axis=-1)
            return x.reshape(b.shape)
        return solve

    def element_coefficients(self, cells: np.ndarray) -> np.ndarray:
        """Per-element 2x2 coefficient matrices from cell-wise field values;
        (..., n_elements, 2, 2) for cells of shape (..., n, n, 2, 2)."""
        flat = cells.reshape(cells.shape[:-4] + (-1, 2, 2))
        return np.take(flat, self._cell_of_element, axis=-3)

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
        """Stiffness matrix for grad(v).A.grad(u) with element-constant A.

        For a (k, n, n, 2, 2) stack of cells it is the block-diagonal matrix
        of the k stiffnesses, over the stack's DOFs numbered sample by sample:
        the cached pattern offset per sample. The element matrices are formed
        once per cell; each sample's are gathered per element and summed by
        one `bincount` over the cached slots, one sample at a time, so the
        gathered weights (16 per element) never exist for the whole stack."""
        ke = element_stiffness(cells[..., 0, 0], cells[..., 1, 1], cells[..., 0, 1])
        ke = ke.reshape(-1, self.n * self.n, 16)
        indices, indptr, slot = self._stiffness_pattern
        k, nnz = len(ke), len(indices)
        data = np.empty((k, nnz))
        for s in range(k):
            weights = np.take(ke[s], self._cell_of_element, axis=0)
            data[s] = np.bincount(slot, weights=weights.ravel(), minlength=nnz)
        shift = np.arange(k, dtype=indices.dtype)[:, None]
        indices = (indices + self.ndof * shift).ravel()
        indptr = np.append((indptr[:-1] + nnz * shift).ravel(), k * nnz)
        return sp.csr_matrix((data.ravel(), indices, indptr),
                             shape=(k * self.ndof, k * self.ndof))

    def corrector_rhs(self, cells: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Load vector of -int grad(v).A.p (consistent with the stiffness).
        A p is taken once per unit cell and gathered per element. A
        (k, n, n, 2, 2) stack of cells gives a (k, ndof) stack of loads from
        one offset `bincount`."""
        ap = cells @ np.asarray(p, dtype=float)
        ap = np.take(ap.reshape(ap.shape[:-3] + (-1, 2)), self._cell_of_element, axis=-2)
        fe = ap[..., 0, None] * GX
        for c in range(4):  # by column: no second (E, 4) temporary on large boxes
            fe[..., c] += ap[..., 1] * GY[c]
        fe *= -0.5 * self.h
        stack = fe.shape[:-2]
        k = fe.size // (4 * self.ndof)
        nodes = self.elem_nodes.ravel()
        if k > 1:
            nodes = (nodes + self.ndof * np.arange(k)[:, None]).ravel()
        return np.bincount(nodes, weights=fe.ravel(),
                           minlength=k * self.ndof).reshape(stack + (self.ndof,))

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
           maxiter: int | None = None, preconditioner=None, centre: bool = False):
    """Preconditioned conjugate gradients for K x = b, the one CG loop of
    both legs (periodic correctors and penalized references).

    K is symmetric positive definite, or with `centre` semidefinite with the
    constants as its kernel and b of mean zero; the residual is then
    projected to mean zero at every iteration. `preconditioner` maps a
    residual to the search update and must be symmetric positive definite
    (default: the inverse diagonal of K). Returns (x, iterations,
    relative_residual).

    b is one vector or a (k, N) stack of right-hand sides, for a K that is
    block-diagonal over the stack's rows (N DOFs each). Every row runs its
    own CG: its own step lengths, and it leaves the loop at the iteration it
    converges, so it ends with the bits a solve of that row alone would give.
    A zero row returns zeros after 0 iterations. A stack's preconditioner is
    called as preconditioner(r, rows), with r the residuals of the stack
    rows `rows` (an index array or slice) still iterating; a vector's as
    preconditioner(r). For a stack, iterations and residuals are arrays.
    The default `maxiter`, 10000 + 50 sqrt(N), holds per row.
    """
    single = b.ndim == 1
    stack = b[None] if single else b
    k, n = stack.shape
    if single and preconditioner is not None:
        apply = preconditioner
        preconditioner = lambda r, rows: apply(r[0])[None]
    if preconditioner is None:
        inv_diag = (1.0 / K.diagonal()).reshape(k, n)
        preconditioner = lambda r, rows: inv_diag[rows] * r
    if maxiter is None:
        maxiter = 10000 + int(50 * np.sqrt(n))
    x = np.zeros_like(stack)
    iterations = np.zeros(k, dtype=int)
    residual = np.zeros(k)

    def result():
        if single:
            return x[0], int(iterations[0]), float(residual[0])
        return x, iterations, residual

    bnorm = np.sqrt(np.vecdot(stack, stack))
    live = np.flatnonzero(bnorm)
    if not live.size:
        return result()
    rows = slice(None) if live.size == k else live
    xs = x if live.size == k else x[live]  # the live rows' iterates; x itself until a row leaves
    bnorm = bnorm[live]
    r = stack[live]
    z = preconditioner(r, rows)
    p = z
    rz = np.vecdot(r, z)
    rnorm = bnorm  # relative residual 1 until the first iteration
    padded = None
    for it in range(1, maxiter + 1):
        if live.size == k:
            q = (K @ p.ravel()).reshape(p.shape)
        else:
            # rows that left keep stale values in `padded`; K is
            # block-diagonal, so no live row sees them
            if padded is None:
                padded = np.zeros_like(stack)
            padded[live] = p
            q = (K @ padded.ravel()).reshape(k, n)[live]
        alpha = (rz / np.vecdot(p, q))[:, None]
        xs += alpha * p
        r -= alpha * q
        if centre:  # project out the kernel of constants: r.mean(axis=-1), without its wrapper
            r -= r.sum(axis=-1, keepdims=True) / n
        rnorm = np.sqrt(np.vecdot(r, r))
        done = rnorm <= tol * bnorm
        if done.any():
            finished = live[done]
            iterations[finished] = it
            residual[finished] = rnorm[done] / bnorm[done]
            if xs is not x:
                x[finished] = xs[done]
            if done.all():
                return result()
            left = ~done
            live = rows = live[left]
            xs = x[live] if xs is x else xs[left]
            r, p, rz, bnorm, rnorm = r[left], p[left], rz[left], bnorm[left], rnorm[left]
        z = preconditioner(r, rows)
        rz_new = np.vecdot(r, z)
        p = z + (rz_new / rz)[:, None] * p
        rz = rz_new
    worst = float((rnorm / bnorm).max())
    raise SolverError(
        f"CG did not reach tol={tol:g} within {maxiter} iterations "
        f"(relative residual {worst:.3e})", iterations=maxiter, residual=worst)


def solve_singular_system(K: sp.csr_matrix, b: np.ndarray, tol: float = 1e-9,
                          method: str = "cg", preconditioner=None, factorization=None):
    """Solve K x = b where K is SPD up to the 1D kernel of constants.

    Returns (x, iterations, relative_residual) with mean(x) = 0. The "cg"
    method is `cg_spd` on the centred b with the residual kept at mean zero;
    b may be a (k, N) stack for a block-diagonal K, centred row by row.
    "direct" pins one DOF and solves with `factorization`, the
    `pinned_factorization(K)` (computed here when not given); it takes one
    right-hand side, as a vector or a one-row stack.
    """
    b = b - b.mean(axis=-1, keepdims=True)
    if method == "direct":
        bnorm = float(np.linalg.norm(b))
        x = np.zeros_like(b)
        residual = 0.0
        if bnorm > 0.0:
            lu = pinned_factorization(K) if factorization is None else factorization
            x[..., 1:] = lu.solve(b[..., 1:].ravel()).reshape(b[..., 1:].shape)
            x -= x.mean(axis=-1, keepdims=True)
            residual = float(np.linalg.norm(K @ x.ravel() - b.ravel())) / bnorm
        iterations = int(bnorm > 0.0)
        if b.ndim == 1:
            return x, iterations, residual
        return x, np.full(1, iterations), np.full(1, residual)
    if method != "cg":
        raise ParameterError(f"unknown solver method {method!r}")
    x, iterations, residual = cg_spd(K, b, tol, preconditioner=preconditioner, centre=True)
    x -= x.mean(axis=-1, keepdims=True)
    return x, iterations, residual

"""Square-grid Q1 building blocks shared by the reference solver and the
multiscale basis constructions: connectivity, trace rows, free-node masks
and masked energy products on an fn x fn cell grid; the one builder of the
penalized operator's free-node blocks, written as a 9-point stencil with
per-cell penalty weights, as nine diagonals for the reference solve
(`penalized_diagonals`) or, for the banded Cholesky of the local problems,
as their lower half in LAPACK band storage, with the coupling to the
Dirichlet nodes applied slot by slot, never stored (`penalized_band`); the
one Q1 load builder (`load_vector`); and the Galerkin multigrid V-cycle that
preconditions the reference solve's CG (`grid.cg_spd`), whose levels are
nine diagonals too and whose transfers run along each grid axis."""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import CORNERS, KXX, KYY, MASS

KLAP = KXX + KYY
SIDES = ("S", "E", "N", "W")
# The 9-point stencil: neighbour offsets (dx, dy) in ascending node order
# (x index slow), and for each the corner pairs (a, b) of the cells that hold
# a node as corner a and its neighbour as corner b.
STENCIL = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
STENCIL_PAIRS = tuple(tuple((a, b) for a, (ax, ay) in enumerate(CORNERS.tolist())
                            for b, (bx, by) in enumerate(CORNERS.tolist())
                            if (bx - ax, by - ay) == (dx, dy))
                      for dx, dy in STENCIL.tolist())


def penalized_diagonals(fn: int, mask: np.ndarray, kappa: float, h: float,
                        dirichlet) -> sp.dia_matrix:
    """Free block A_ff of the penalized Q1 operator on an fn x fn cell grid:
    the Laplace stiffness plus kappa int_{masked cells} u v (the exact Q1
    mass), on the nodes off the `dirichlet` sides, rows and columns in
    `SquareGrid`'s node order. It is returned as a 9-diagonal `dia_matrix`
    (see `_nine_diagonals`) written slot by slot from the stencil, so a
    product sums each row in column order, as CSR does, and no column index
    is stored. The coupling to the Dirichlet nodes is not built; the local
    problems apply it through `penalized_band`'s `couple`."""
    lo, hi = _free_range(fn, dirichlet)
    return _nine_diagonals(_stencil_slots(fn, mask, kappa, h, lo, hi),
                           hi[0] - lo[0], hi[1] - lo[1])


def penalized_band(fn: int, mask: np.ndarray, kappa: float, h: float,
                   dirichlet) -> tuple[np.ndarray, partial]:
    """The free block of `penalized_diagonals` in LAPACK's lower band
    storage (`band[i - j, j] = A_ff[i, j]` for 0 <= i - j <= ny + 1, ny the
    free nodes per grid column), ready for `dpbtrf`, and `couple`, which
    maps nodal data g (k, nn), zero off the Dirichlet nodes, to the product
    A_fd g (n_free, k) of the coupling to the Dirichlet nodes, which is not
    stored. Band row o is the diagonal -o of `_nine_diagonals` as it stands,
    so the diagonals alone decide which slots belong to the free block."""
    lo, hi = _free_range(fn, dirichlet)
    nx, ny = hi[0] - lo[0], hi[1] - lo[1]
    slots = list(_stencil_slots(fn, mask, kappa, h, lo, hi))
    diagonals = _nine_diagonals(slots, nx, ny)
    band = np.zeros((ny + 2, nx * ny), order="F")   # LAPACK's layout: no copy
    lower = diagonals.offsets <= 0
    band[-diagonals.offsets[lower]] = diagonals.data[lower]
    return band, partial(_couple, slots, fn, lo, hi)


def _couple(slots: list, fn: int, lo, hi, g: np.ndarray) -> np.ndarray:
    """A_fd g for nodal data g (k, nn) that is zero on the free nodes: each
    free node sums its slots times its neighbours' values in STENCIL order,
    which is column order, as a CSR product does. g is zero-padded, so a
    neighbour off the grid, whose slot holds junk, adds junk times zero."""
    padded = np.zeros((len(g), fn + 3, fn + 3))
    padded[:, 1:-1, 1:-1] = g.reshape(len(g), fn + 1, fn + 1)
    out = np.zeros((len(g), hi[0] - lo[0], hi[1] - lo[1]))
    for (dx, dy), slot in zip(STENCIL.tolist(), slots):
        out += slot * padded[:, lo[0] + 1 + dx:hi[0] + 1 + dx, lo[1] + 1 + dy:hi[1] + 1 + dy]
    return out.reshape(len(g), -1).T


def _free_range(fn: int, dirichlet) -> tuple[tuple[int, int], tuple[int, int]]:
    """The free nodes' index ranges lo <= (x, y) < hi on the fn x fn grid."""
    lo = (int("W" in dirichlet), int("S" in dirichlet))
    hi = (fn + 1 - ("E" in dirichlet), fn + 1 - ("N" in dirichlet))
    return lo, hi


def _stencil_slots(fn: int, mask: np.ndarray, kappa: float, h: float, lo, hi):
    """The penalized operator's nine stencil slots at the nodes lo <= (x, y)
    < hi, one (nx, ny) array per slot in STENCIL order, made as they are
    consumed. A slot whose neighbour is off the grid holds junk.

    Slot (dx, dy) sums KLAP[a, b] over the cells that hold the node as
    corner a and its neighbour as corner b, then kappa h^2 MASS[a, b] over
    the masked ones among them, and adds the two sums. All terms of one sum
    are equal, so the entries are bitwise those of an element-by-element
    assembly of the Laplacian plus one of the penalty."""
    # cell (cx, cy) sits at [cx + 1, cy + 1]; the padding holds no cell
    inside = np.zeros((fn + 2, fn + 2), dtype=bool)
    inside[1:-1, 1:-1] = True
    masked = np.zeros((fn + 2, fn + 2), dtype=bool)
    masked[1:-1, 1:-1] = mask
    corner_cells = []  # per corner a, the cells holding the nodes as corner a
    for cx, cy in CORNERS:
        cells = (slice(lo[0] + 1 - cx, hi[0] + 1 - cx), slice(lo[1] + 1 - cy, hi[1] + 1 - cy))
        corner_cells.append((inside[cells], masked[cells]))
    lap_w, pen_w = KLAP.tolist(), (kappa * h * h * MASS).tolist()
    # term and pen are reused: only the slot handed out is new
    shape = (hi[0] - lo[0], hi[1] - lo[1])
    term, pen = np.empty(shape), np.empty(shape)
    for pairs in STENCIL_PAIRS:
        # in place from zeros: a lone -0.0 term gives +0.0, as 0.0 + x does
        lap = np.zeros(shape)
        pen[...] = 0.0
        for a, b in pairs:
            lap += np.multiply(lap_w[a][b], corner_cells[a][0], out=term)
            pen += np.multiply(pen_w[a][b], corner_cells[a][1], out=term)
        lap += pen
        yield lap


def _nine_diagonals(slots, nx: int, ny: int) -> sp.dia_matrix:
    """The matrix on an nx x ny node grid (x index slow) whose row (x, y)
    holds slots[k][x, y] in the column of its neighbour (x + dx, y + dy),
    for the nine STENCIL slots (dx, dy); slots whose neighbour is off the
    grid are dropped. Slot (dx, dy) lies on the diagonal dx ny + dy, so the
    offsets ascend in slot order (for ny >= 3; a shorter column puts two
    slots, never both on the grid, on one diagonal).

    `dia_matrix` stores a diagonal by column, and a column is the
    neighbour, so each slot is written as one shifted 2-D slice."""
    offsets, diagonal = np.unique(STENCIL[:, 0] * ny + STENCIL[:, 1], return_inverse=True)
    data = np.zeros((len(offsets), nx * ny))
    for (dx, dy), d, values in zip(STENCIL.tolist(), diagonal, slots):
        neighbours = data[d].reshape(nx, ny)
        neighbours[max(dx, 0):nx + min(dx, 0), max(dy, 0):ny + min(dy, 0)] = \
            values[max(-dx, 0):nx - max(dx, 0), max(-dy, 0):ny - max(dy, 0)]
    return sp.dia_matrix((data, offsets), shape=(nx * ny, nx * ny))


def load_vector(cell_values: np.ndarray, keep: np.ndarray, h: float) -> np.ndarray:
    """int f v over the kept cells of an fn x fn grid for f constant per cell
    (midpoint values); exact for bilinear v given the per-cell constants.
    cell_values (..., fn * fn) and keep (..., fn, fn) give (..., (fn + 1)^2),
    in `SquareGrid`'s node order.

    Each cell adds a quarter of its integral to its four corners, as four
    corner-shifted adds. A node takes its cells' shares in ascending element
    order (the cell holding it as NE corner, then SE, NW, SW), as an
    element-by-element sum does."""
    fn = keep.shape[-1]
    w = np.where(keep.reshape(cell_values.shape), cell_values, 0.0)
    w *= h * h / 4.0
    w = w.reshape(keep.shape)
    out = np.zeros((*keep.shape[:-2], fn + 1, fn + 1))
    out[..., 1:, 1:] += w
    out[..., 1:, :-1] += w
    out[..., :-1, 1:] += w
    out[..., :-1, :-1] += w
    return out.reshape(*keep.shape[:-2], -1)


class SquareGrid:
    """Connectivity of a square Q1 grid."""

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

    def side_nodes(self, side: str) -> np.ndarray:
        """The fn + 1 nodes of one side, in ascending order."""
        nodes = np.arange(self.nn).reshape(self.fn + 1, self.fn + 1)
        return {"S": nodes[:, 0], "N": nodes[:, -1], "W": nodes[0], "E": nodes[-1]}[side]

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
        lo, hi = _free_range(self.fn, sides)
        free = np.zeros((self.fn + 1, self.fn + 1), dtype=bool)
        free[lo[0]:hi[0], lo[1]:hi[1]] = True
        return free.ravel()

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
    """Shared grid for the local and error-norm computations."""
    return SquareGrid(fn)


# Galerkin multigrid on the interior nodes of a square grid: coarsen, at any
# parity, while the cell count is above MG_COARSEST, then factorize the
# coarsest level.
MG_COARSEST = 32
MG_OMEGA = 0.8  # damped-Jacobi weight of the one pre- and one post-sweep


def _interpolation_1d(fn: int) -> sp.csr_matrix:
    """Linear interpolation from the (fn - 1) // 2 interior nodes of a grid
    with (fn + 1) // 2 cells to the fn - 1 interior nodes of one with fn
    cells (zero Dirichlet ends); coarse node j + 1 sits on fine node
    2(j + 1). For odd fn the last coarse node sits on the last interior fine
    node, so the coarse grid's last cell is one fine cell wide and the entry
    past that node is dropped."""
    nc = (fn - 1) // 2
    j = np.arange(nc)
    rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
    cols = np.tile(j, 3)
    data = np.concatenate([np.ones(nc), np.full(2 * nc, 0.5)])
    keep = rows < fn - 1
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(fn - 1, nc))


def _prolong(p1: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """P v for P = kron(p1, p1) on a square grid's interior nodes (x index
    slow): p1 along y, then along x."""
    nc = p1.shape[1]
    return (p1 @ (p1 @ v.reshape(nc, nc).T).T).ravel()


def _restrict(p1: sp.csr_matrix, y: np.ndarray) -> np.ndarray:
    """P^T y for P = kron(p1, p1), as `_prolong` with p1^T."""
    nf = p1.shape[0]
    return (p1.T @ (p1.T @ y.reshape(nf, nf).T).T).ravel()


def _residual(A: sp.dia_matrix, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - A x, in the buffer of A x."""
    r = A @ x
    return np.subtract(b, r, out=r)


def _galerkin(A: sp.dia_matrix, p1: sp.csr_matrix) -> sp.dia_matrix:
    """The coarse operator P^T A P, P = kron(p1, p1), of a 9-point operator
    A, by nine probes.

    P^T A P is 9-point too, so with coarse node (I, J) coloured (I mod 3,
    J mod 3), each node's 3 x 3 neighbourhood holds one node of each colour,
    and P^T A P applied to the indicator of a colour gives, at each node, its
    one stencil slot that points to that colour. The lower slots are kept
    and mirrored to the upper ones, so the coarse operator is symmetric bit
    for bit."""
    nc = p1.shape[1]
    slots = np.empty((len(STENCIL), nc, nc))
    for cx, cy in np.ndindex(3, 3):
        probe = np.zeros((nc, nc))
        probe[cx::3, cy::3] = 1.0
        w = _restrict(p1, A @ _prolong(p1, probe)).reshape(nc, nc)
        for k, (dx, dy) in enumerate(STENCIL.tolist()):
            # the nodes whose neighbour (dx, dy) has colour (cx, cy)
            sx, sy = (cx - dx) % 3, (cy - dy) % 3
            slots[k, sx::3, sy::3] = w[sx::3, sy::3]
    coarse = _nine_diagonals(slots, nc, nc)
    data = coarse.data
    for k, offset in enumerate(coarse.offsets[:len(STENCIL) // 2]):
        # diagonal -o at column j holds A[j + o, j]; diagonal o at column
        # j + o holds its transpose
        data[-1 - k, -offset:] = data[k, :offset]
    return coarse


def _v_cycle(levels: tuple, coarse_lu, b: np.ndarray) -> np.ndarray:
    """One V-cycle from a zero initial guess: damped-Jacobi pre-sweep,
    Galerkin coarse correction, damped-Jacobi post-sweep; symmetric, so it
    can precondition CG."""
    if not levels:
        return coarse_lu.solve(b)
    A, w_inv_diag, p1 = levels[0]
    x = w_inv_diag * b
    x += _prolong(p1, _v_cycle(levels[1:], coarse_lu, _restrict(p1, _residual(A, x, b))))
    r = _residual(A, x, b)
    r *= w_inv_diag
    x += r
    return x


def multigrid_preconditioner(A: sp.dia_matrix, fn: int):
    """V-cycle preconditioner for the 9-point operator A, a `dia_matrix` from
    `penalized_diagonals`, on the (fn - 1)^2 interior nodes of a square grid
    with fn cells per side, ordered as `SquareGrid` numbers them (x index
    slow).

    Prolongation is P = kron(P1, P1) with P1 1D linear interpolation,
    restriction P^T and coarse operators P^T A P, so a penalty jump in A
    carries over to every level (Alcouffe, Brandt, Dendy & Painter, SIAM J.
    Sci. Stat. Comput. 2, 1981). A level keeps its operator, its weighted
    inverse diagonal and P1 alone: P and P^T are applied along each grid
    axis, and each coarse operator is probed into 9-diagonal form
    (`_galerkin`), so no kron product or sparse triple product is formed.
    Odd grids coarsen too (see `_interpolation_1d`), so every fn gets a
    hierarchy down to at most MG_COARSEST cells per side, whose operator is
    factorized.

    The cycle is a module-level function bound with `partial`: a recursive
    closure would form a reference cycle and keep the hierarchy alive until
    the cyclic garbage collector runs.
    """
    levels = []
    while fn > MG_COARSEST:
        p1 = _interpolation_1d(fn)
        levels.append((A, MG_OMEGA / A.diagonal(), p1))
        A = _galerkin(A, p1)
        fn = (fn + 1) // 2
    return partial(_v_cycle, tuple(levels), spla.splu(A.tocsc()))

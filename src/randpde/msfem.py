"""Crouzeix-Raviart multiscale finite elements with bubbles on perforated
domains, plus the coarse-Q1 and linear-boundary-condition MsFEM baselines.

Basis functions are local penalized solves on per-element fine grids. The
Crouzeix-Raviart edge function is harmonic in each of the two elements
sharing its edge, has unit integral on that edge, zero integral on the other
internal edges of its support (edge averages are enforced by one Lagrange
multiplier per edge, whose value is the constant normal flux), and vanishes
on outer-boundary edges. The bubble solves -lap(psi) = 1 with zero edge
averages. Coarse continuity holds only in the mean across each edge, which
is what makes the space robust to perforations crossing element boundaries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (AssemblyError, GridMismatchError, LocalSolveError,
                     ParameterError, ResolutionWarning)
from .femcore import SIDES, square_grid
from .poisson import FineSolution, check_resolution, default_kappa


@dataclass(frozen=True)
class CoarseMesh:
    """Uniform m x m quadrilateral mesh of the unit square."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ParameterError("coarse mesh needs m >= 2 elements per side")

    @property
    def H(self) -> float:
        return 1.0 / self.m

    def n_internal_edges(self) -> int:
        return 2 * self.m * (self.m - 1)

    def edge_id(self, orientation: str, i: int, j: int) -> int:
        """Vertical edge (i, j): between elements (i, j) and (i+1, j);
        horizontal edge (i, j): between elements (i, j) and (i, j+1)."""
        m = self.m
        if orientation == "v":
            return i * m + j
        return (m - 1) * m + i * (m - 1) + j

    def element_side_edge(self, i: int, j: int, side: str):
        """Internal-edge id seen from element (i, j) on the given side, or
        None when that side lies on the outer boundary."""
        m = self.m
        if side == "W":
            return self.edge_id("v", i - 1, j) if i > 0 else None
        if side == "E":
            return self.edge_id("v", i, j) if i < m - 1 else None
        if side == "S":
            return self.edge_id("h", i, j - 1) if j > 0 else None
        if side == "N":
            return self.edge_id("h", i, j) if j < m - 1 else None
        raise ParameterError(f"unknown side {side!r}")

    def edge_adjacency(self):
        """edge id -> ((elem, side), (elem, side)) for both supports."""
        adj = {}
        m = self.m
        for i in range(m - 1):
            for j in range(m):
                adj[self.edge_id("v", i, j)] = (((i, j), "E"), ((i + 1, j), "W"))
        for i in range(m):
            for j in range(m - 1):
                adj[self.edge_id("h", i, j)] = (((i, j), "N"), ((i, j + 1), "S"))
        return adj

    def edge_trace_points(self, edge_id: int, fn: int):
        """Physical coordinates of the fn+1 fine trace nodes on an edge."""
        m = self.m
        H = self.H
        t = np.linspace(0.0, H, fn + 1)
        if edge_id < (m - 1) * m:
            i, j = divmod(edge_id, m)
            return np.full(fn + 1, (i + 1) * H), j * H + t
        k = edge_id - (m - 1) * m
        i, j = divmod(k, m - 1)
        return i * H + t, np.full(fn + 1, (j + 1) * H)


@dataclass
class MsFEMSpace:
    """Numerically built basis functions stored on per-element fine grids."""

    mesh: CoarseMesh
    perf: object
    fine_n: int
    kappa: float
    with_bubbles: bool
    method: str                  # "cr" or "linear"
    elem_alive: np.ndarray       # (m, m) bool
    edge_alive: np.ndarray       # (n_internal_edges,) bool
    masks: np.ndarray            # (m, m, fn, fn) bool
    elem_basis: dict             # (i, j) -> (dof ids array, values (nb, nn))
    n_dofs: int
    n_edge_dofs: int
    edge_dof: dict               # edge id -> dof
    bubble_dof: dict             # (i, j) -> dof
    node_dof: dict               # coarse node -> dof (linear variant only)
    solves: int                  # local right-hand sides solved
    factorizations: int = 0      # local LU factorizations made

    @property
    def h_loc(self) -> float:
        return self.mesh.H / self.fine_n

    def without_bubbles(self) -> "MsFEMSpace":
        """View of the same space with bubble functions dropped."""
        if not self.with_bubbles:
            return self
        # a bubble is always the last basis row of its element
        basis = {elem: (dofs[:-1], values[:-1]) if elem in self.bubble_dof
                 else (dofs, values)
                 for elem, (dofs, values) in self.elem_basis.items()}
        return replace(self, with_bubbles=False, elem_basis=basis,
                       n_dofs=self.n_edge_dofs, bubble_dof={})


@lru_cache(maxsize=4)
def _element_geometry(mesh: CoarseMesh, perf, fine_n: int):
    """Masks, element liveness and edge liveness for the given geometry.

    Cached, so the cr, linear and q1 builds of one geometry compute it once;
    the arrays are read-only because every one of those spaces shares them."""
    m = mesh.m
    grid = square_grid(fine_n)
    h_loc = mesh.H / fine_n
    masks = np.zeros((m, m, fine_n, fine_n), dtype=bool)
    elem_alive = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            cx, cy = grid.cell_centers((i * mesh.H, j * mesh.H), h_loc)
            mask = perf.indicator(cx, cy).reshape(fine_n, fine_n)
            masks[i, j] = mask
            elem_alive[i, j] = not mask.all()
    edge_alive = np.zeros(mesh.n_internal_edges(), dtype=bool)
    for eid, ((ea, _), (eb, _)) in mesh.edge_adjacency().items():
        px, py = mesh.edge_trace_points(eid, fine_n)
        covered = bool(perf.indicator(px, py).all())
        # an edge whose support element is fully perforated lies in the
        # closure of the perforations; dropping it keeps mean jumps zero
        edge_alive[eid] = (not covered) and elem_alive[ea] and elem_alive[eb]
    for arr in (masks, elem_alive, edge_alive):
        arr.flags.writeable = False
    return masks, elem_alive, edge_alive


class _LocalProblem(NamedTuple):
    """One element's local problems, one per basis function (dof):
    -lap(v) + kappa 1_B v = f inside the element, v = trace on the
    `dirichlet` sides and int_side v = average on each `constrained` side
    (one Lagrange multiplier per side); the other sides are natural. The
    rows of `averages` or `traces` lift data with f = 0; a bubble (f = 1,
    zero data) comes last."""

    dofs: list
    dirichlet: tuple
    constrained: tuple
    averages: np.ndarray | None = None   # (k, len(constrained))
    traces: np.ndarray | None = None     # (k, nn), read on the Dirichlet nodes
    bubble: bool = False


def _local_basis(grid, masks: np.ndarray, kappa: float, h_loc: float,
                 problems: dict) -> tuple[dict, int]:
    """Solve every element's local problems with one LU per distinct system.

    Elements whose problems share the mask and the Dirichlet and constrained
    sides share the matrix, so they are grouped and each group is factorized
    once; its LU is freed before the next group is factorized, which keeps
    one LU alive at a time. Returns element -> (dof ids, nodal values (k, nn))
    and the number of factorizations."""
    groups = {}
    for elem, prob in problems.items():
        key = (masks[elem].tobytes(), prob.dirichlet, prob.constrained)
        groups.setdefault(key, []).append(elem)
    basis = {}
    for members in groups.values():
        basis.update(_solve_group(grid, masks[members[0]], kappa, h_loc,
                                  {elem: problems[elem] for elem in members}))
    return basis, len(groups)


def _solve_group(grid, mask: np.ndarray, kappa: float, h_loc: float,
                 members: dict) -> dict:
    """Factorize the local system shared by `members` and solve each of
    their right-hand sides: the saddle block [[A_ff, C^T], [C, 0]] with
    right-hand side (-A_fb g, c) for a lift of trace g and averages c, and
    (b_f, 0) for the bubble load b, which depends only on the mask. Each
    right-hand side is solved on its own, because SuperLU's multi-column
    solve differs from its single-column one at round-off."""
    first = next(iter(members.values()))
    A = grid.laplace() + grid.penalty_mass(mask, kappa, h_loc)
    fixed = grid.boundary_nodes(first.dirichlet)
    free = np.setdiff1d(np.arange(grid.nn), fixed)
    A_f = A[free]
    if first.constrained:
        C = sp.csr_matrix(np.vstack([grid.trace_row(s, h_loc)[free]
                                     for s in first.constrained]))
        system = sp.bmat([[A_f[:, free], C.T], [C, None]], format="csc")
    else:
        system = A_f[:, free].tocsc()
    try:
        lu = spla.splu(system)
    except RuntimeError as exc:
        i, j = next(iter(members))
        raise LocalSolveError(f"singular local system on element ({i}, {j})",
                              kind="element", index=(i, j)) from exc
    load = grid.load_vector(np.ones(mask.size), ~mask, h_loc)[free]
    out = {}
    for (i, j), prob in members.items():
        rhs = np.zeros((len(prob.dofs), system.shape[0]))
        values = np.zeros((len(prob.dofs), grid.nn))
        lifts = len(prob.dofs) - prob.bubble
        if prob.averages is not None:
            rhs[:lifts, free.size:] = prob.averages
        if prob.traces is not None:
            g = prob.traces[:, fixed]
            rhs[:lifts, :free.size] = -(A_f[:, fixed] @ g.T).T
            values[:lifts, fixed] = g
        if prob.bubble:
            rhs[-1, :free.size] = load
        for k, row in enumerate(rhs):
            sol = lu.solve(row)
            if not np.all(np.isfinite(sol)):
                raise LocalSolveError(f"local solve diverged on element ({i}, {j})",
                                      kind="element", index=(i, j))
            values[k, free] = sol[:free.size]
        out[(i, j)] = (np.array(prob.dofs, dtype=int), values)
    return out


def _space(mesh, perf, fine_n, kappa, grid, geometry, basis, factorizations,
           **numbering) -> MsFEMSpace:
    """Space over the given geometry; dead elements keep no basis rows."""
    masks, elem_alive, edge_alive = geometry
    empty = (np.array([], dtype=int), np.zeros((0, grid.nn)))
    m = mesh.m
    return MsFEMSpace(mesh=mesh, perf=perf, fine_n=fine_n, kappa=kappa,
                      elem_alive=elem_alive, edge_alive=edge_alive, masks=masks,
                      elem_basis={(i, j): basis.get((i, j), empty)
                                  for i in range(m) for j in range(m)},
                      solves=sum(len(dofs) for dofs, _ in basis.values()),
                      factorizations=factorizations, **numbering)


def build_cr_space(mesh: CoarseMesh, perf, fine_n: int, kappa: float | None = None,
                   with_bubbles: bool = True, strict: bool = False) -> MsFEMSpace:
    """Construct the Crouzeix-Raviart basis (edge functions and bubbles).

    Each element solves one saddle system (penalized Laplacian plus one
    average constraint per internal edge) for all of its basis functions;
    elements with the same system share its factorization. Fully perforated
    elements and edges keep no basis functions.
    """
    m = mesh.m
    grid = square_grid(fine_n)
    h_loc = mesh.H / fine_n
    if kappa is None:
        kappa = default_kappa(h_loc)
    check_resolution(perf, h_loc, strict, "build_cr_space")

    geometry = masks, elem_alive, edge_alive = _element_geometry(mesh, perf, fine_n)

    edge_dof = {eid: k for k, eid in enumerate(np.flatnonzero(edge_alive))}
    n_edge_dofs = len(edge_dof)
    alive = [(i, j) for i in range(m) for j in range(m) if elem_alive[i, j]]
    bubble_dof = ({elem: n_edge_dofs + k for k, elem in enumerate(alive)}
                  if with_bubbles else {})

    problems = {}
    for i, j in alive:
        side_edges = {s: mesh.element_side_edge(i, j, s) for s in SIDES}
        internal = tuple(s for s in SIDES if side_edges[s] is not None)
        live = [s for s in internal if edge_alive[side_edges[s]]]
        bubble = [bubble_dof[(i, j)]] if with_bubbles else []
        dirichlet = tuple(s for s in SIDES if side_edges[s] is None)
        problems[(i, j)] = _LocalProblem(
            [edge_dof[side_edges[s]] for s in live] + bubble, dirichlet, internal,
            averages=np.eye(len(internal))[[internal.index(s) for s in live]],
            bubble=with_bubbles)
    basis, factorizations = _local_basis(grid, masks, kappa, h_loc, problems)

    return _space(mesh, perf, fine_n, kappa, grid, geometry, basis, factorizations,
                  with_bubbles=with_bubbles, method="cr",
                  n_dofs=n_edge_dofs + len(bubble_dof), n_edge_dofs=n_edge_dofs,
                  edge_dof=edge_dof, bubble_dof=bubble_dof, node_dof={})


def _corner_hats(grid, node_dof: dict, i: int, j: int):
    """Dof ids and bilinear hats, on the local fine grid, of the corners of
    element (i, j) that carry a coarse node dof."""
    t = np.arange(grid.fn + 1) / grid.fn
    dofs, hats = [], []
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if (i + di, j + dj) in node_dof:
            dofs.append(node_dof[(i + di, j + dj)])
            hats.append(np.outer(t if di else 1.0 - t, t if dj else 1.0 - t).ravel())
    return dofs, np.array(hats).reshape(-1, grid.nn)


def build_linear_space(mesh: CoarseMesh, perf, fine_n: int,
                       kappa: float | None = None, with_bubbles: bool = True,
                       strict: bool = False) -> MsFEMSpace:
    """Classical MsFEM basis: harmonic lifts of affine (hat) traces on each
    element boundary, penalized inside perforations, plus Dirichlet bubbles."""
    m = mesh.m
    grid = square_grid(fine_n)
    h_loc = mesh.H / fine_n
    if kappa is None:
        kappa = default_kappa(h_loc)
    check_resolution(perf, h_loc, strict, "build_linear_space")

    geometry = masks, elem_alive, _ = _element_geometry(mesh, perf, fine_n)

    node_dof = {}
    k = 0
    for a in range(1, m):
        for b in range(1, m):
            corners = [(a - 1, b - 1), (a, b - 1), (a - 1, b), (a, b)]
            if any(elem_alive[c] for c in corners):
                node_dof[(a, b)] = k
                k += 1
    n_node_dofs = k
    alive = [(i, j) for i in range(m) for j in range(m) if elem_alive[i, j]]
    bubble_dof = ({elem: n_node_dofs + k for k, elem in enumerate(alive)}
                  if with_bubbles else {})

    problems = {}
    for i, j in alive:
        dofs, traces = _corner_hats(grid, node_dof, i, j)
        bubble = [bubble_dof[(i, j)]] if with_bubbles else []
        problems[(i, j)] = _LocalProblem(dofs + bubble, SIDES, (), traces=traces,
                                         bubble=with_bubbles)
    basis, factorizations = _local_basis(grid, masks, kappa, h_loc, problems)

    return _space(mesh, perf, fine_n, kappa, grid, geometry, basis, factorizations,
                  with_bubbles=with_bubbles, method="linear",
                  n_dofs=n_node_dofs + len(bubble_dof), n_edge_dofs=n_node_dofs,
                  edge_dof={}, bubble_dof=bubble_dof, node_dof=node_dof)


@dataclass(frozen=True)
class CoarseSolution:
    """Coarse Galerkin solution with its fine-grid reconstruction."""

    m: int
    fine_n: int
    method: str
    with_bubbles: bool
    dof: int
    solves: int
    coeffs: np.ndarray
    recon: np.ndarray   # (m, m, fn+1, fn+1)
    masks: np.ndarray   # (m, m, fn, fn)
    coarse_matrix: sp.csr_matrix


def _coarse_galerkin(space: MsFEMSpace, f, restrict_load: bool,
                     penalized_form: bool) -> CoarseSolution:
    mesh = space.mesh
    grid = square_grid(space.fine_n)
    h_loc = space.h_loc
    if space.n_dofs == 0:
        raise AssemblyError("no basis functions survive the perforations")
    rows, cols, grams = [], [], []
    b = np.zeros(space.n_dofs)
    for (i, j), (dofs, values) in space.elem_basis.items():
        if len(dofs) == 0:
            continue
        mask = space.masks[i, j]
        keep = ~mask
        if penalized_form:
            gram = grid.energy_products(values, np.ones_like(keep)) \
                + space.kappa * grid.l2_products(values, mask, h_loc)
        else:
            gram = grid.energy_products(values, keep)
        cx, cy = grid.cell_centers((i * mesh.H, j * mesh.H), h_loc)
        fc = np.asarray(f(cx, cy), dtype=float)
        if fc.ndim == 0:
            fc = np.full(space.fine_n ** 2, float(fc))
        load_keep = keep if restrict_load else np.ones_like(keep)
        load = values @ grid.load_vector(fc, load_keep, h_loc)
        np.add.at(b, dofs, load)
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        grams.append(gram.ravel())
    K = sp.coo_matrix((np.concatenate(grams), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(space.n_dofs, space.n_dofs)).tocsr()
    try:
        coeffs = spla.spsolve(K.tocsc(), b)
    except RuntimeError as exc:
        raise AssemblyError("coarse system is singular") from exc
    if not np.all(np.isfinite(coeffs)):
        raise AssemblyError("coarse system is singular (non-finite solution)")

    fn = space.fine_n
    recon = np.zeros((mesh.m, mesh.m, fn + 1, fn + 1))
    for (i, j), (dofs, values) in space.elem_basis.items():
        if len(dofs) == 0:
            continue
        recon[i, j] = (coeffs[dofs] @ values).reshape(fn + 1, fn + 1)
    return CoarseSolution(m=mesh.m, fine_n=fn, method=space.method,
                          with_bubbles=space.with_bubbles, dof=space.n_dofs,
                          solves=space.solves, coeffs=coeffs, recon=recon,
                          masks=space.masks, coarse_matrix=K)


def msfem_solve(space: MsFEMSpace, f) -> CoarseSolution:
    """Galerkin solve over the multiscale space: the coarse form sums
    grad-grad products over the unperforated part of each element, and the
    load is restricted there as well."""
    return _coarse_galerkin(space, f, restrict_load=True, penalized_form=False)


def baseline_solve(mesh: CoarseMesh, perf, f, method: str,
                   with_bubbles: bool = True, fine_n: int = 32,
                   kappa: float | None = None, strict: bool = False) -> CoarseSolution:
    """Reference methods: standard coarse Q1 and MsFEM with linear boundary
    conditions. Both spaces are H1-conforming on the full square, so their
    coarse problem is the plain Galerkin projection of the penalized problem
    (the penalty term is what makes affine traces crossing perforations
    expensive, which is the sensitivity these baselines are known for)."""
    if method == "msfem_linear":
        space = build_linear_space(mesh, perf, fine_n, kappa=kappa,
                                   with_bubbles=with_bubbles, strict=strict)
    elif method == "coarse_q1":
        space = _q1_space(mesh, perf, fine_n, kappa, with_bubbles)
    else:
        raise ParameterError(f"unknown baseline method {method!r}")
    return _coarse_galerkin(space, f, restrict_load=False, penalized_form=True)


def _q1_space(mesh: CoarseMesh, perf, fine_n: int, kappa: float | None,
              with_bubbles: bool) -> MsFEMSpace:
    """Standard coarse Q1 hats on every element, optionally with bubbles."""
    grid = square_grid(fine_n)
    if kappa is None:
        kappa = default_kappa(mesh.H / fine_n)
    masks, elem_alive, edge_alive = _element_geometry(mesh, perf, fine_n)
    m = mesh.m
    node_dof = {(a, b): (a - 1) * (m - 1) + (b - 1)
                for a in range(1, m) for b in range(1, m)}
    elem_basis = {}
    for i in range(m):
        for j in range(m):
            dofs, hats = _corner_hats(grid, node_dof, i, j)
            elem_basis[(i, j)] = (np.array(dofs, dtype=int), hats)
    space = MsFEMSpace(mesh=mesh, perf=perf, fine_n=fine_n, kappa=kappa,
                       with_bubbles=False, method="coarse_q1",
                       elem_alive=elem_alive, edge_alive=edge_alive, masks=masks,
                       elem_basis=elem_basis, n_dofs=(m - 1) ** 2,
                       n_edge_dofs=(m - 1) ** 2, edge_dof={}, bubble_dof={},
                       node_dof=node_dof, solves=0)
    return _add_q1_bubbles(space) if with_bubbles else space


def _add_q1_bubbles(space: MsFEMSpace) -> MsFEMSpace:
    """Dirichlet bubbles (-lap = 1, zero trace on the element boundary) used
    by the baseline methods when bubble enrichment is requested."""
    grid = square_grid(space.fine_n)
    alive = [elem for elem in space.elem_basis if space.elem_alive[elem]]
    bubble_dof = {elem: space.n_dofs + k for k, elem in enumerate(alive)}
    problems = {elem: _LocalProblem([bubble_dof[elem]], SIDES, (), bubble=True)
                for elem in alive}
    bubbles, factorizations = _local_basis(grid, space.masks, space.kappa,
                                           space.h_loc, problems)
    basis = dict(space.elem_basis)
    for elem, (dof, value) in bubbles.items():
        dofs, values = basis[elem]
        basis[elem] = (np.concatenate([dofs, dof]), np.vstack([values, value]))
    return replace(space, with_bubbles=True, elem_basis=basis,
                   n_dofs=space.n_dofs + len(alive), bubble_dof=bubble_dof,
                   solves=space.solves + len(alive),
                   factorizations=space.factorizations + factorizations)


def compute_errors(u: CoarseSolution, ref: FineSolution) -> tuple[float, float]:
    """Relative L2 and broken-H1 errors against a reference, both restricted
    to the unperforated region. The reference is restricted to the coarse
    solution's fine grids by strided sampling (the refinement ratio must be
    an integer: the reference is never interpolated).

    When the reference is finer than m * fine_n, the reported errors include
    the local grids' own resolution gap, not just the multiscale error, and
    a ResolutionWarning says so. In acceptance criterion 6 (H = 1/5,
    fine_n = 32, disc lattice eps = 0.1) the edge-average error with bubbles
    reads 5.79% in L2 against an N = 1280 reference and 0.004% against the
    matched N = 160 one."""
    fn = u.fine_n
    total = u.m * fn
    if ref.fine_n % total != 0:
        raise GridMismatchError(
            f"reference resolution {ref.fine_n} is not an integer multiple "
            f"of the coarse solution's global fine resolution {total}")
    ratio = ref.fine_n // total
    if ratio > 1:
        warnings.warn(
            f"compute_errors: reference N={ref.fine_n} is finer than the local "
            f"grids' global resolution m*fine_n={total}; the errors include "
            f"their resolution gap", ResolutionWarning, stacklevel=2)
    grid = square_grid(fn)
    h_loc = 1.0 / total
    err_l2 = err_h1 = ref_l2 = ref_h1 = 0.0
    for i in range(u.m):
        for j in range(u.m):
            sl_x = slice(i * fn * ratio, (i + 1) * fn * ratio + 1, ratio)
            sl_y = slice(j * fn * ratio, (j + 1) * fn * ratio + 1, ratio)
            ref_elem = ref.values[sl_x, sl_y].reshape(1, -1)
            e = u.recon[i, j].reshape(1, -1) - ref_elem
            keep = ~u.masks[i, j]
            err_l2 += grid.l2_products(e, keep, h_loc)[0, 0]
            err_h1 += grid.energy_products(e, keep)[0, 0]
            ref_l2 += grid.l2_products(ref_elem, keep, h_loc)[0, 0]
            ref_h1 += grid.energy_products(ref_elem, keep)[0, 0]
    if ref_l2 == 0.0 or ref_h1 == 0.0:
        raise ParameterError("reference solution vanishes on the perforated domain")
    return float(np.sqrt(err_l2 / ref_l2)), float(np.sqrt(err_h1 / ref_h1))


def max_mean_jump(space: MsFEMSpace, u: CoarseSolution) -> float:
    """Largest |int_E [[u]]| over alive internal edges (nonconformity check)."""
    grid = square_grid(space.fine_n)
    adjacency = space.mesh.edge_adjacency()
    worst = 0.0
    for eid, ((ea, sa), (eb, sb)) in adjacency.items():
        if not space.edge_alive[eid]:
            continue
        row_a = grid.trace_row(sa, space.h_loc)
        row_b = grid.trace_row(sb, space.h_loc)
        jump = row_a @ u.recon[ea].ravel() - row_b @ u.recon[eb].ravel()
        worst = max(worst, abs(float(jump)))
    return worst


def edge_average_matrix(space: MsFEMSpace) -> np.ndarray:
    """Integral of every basis function over every alive internal edge,
    averaged over the two element traces; rows are edges (by dof), columns
    are dofs. For the CR space this must be the identity on edge dofs and
    zero on bubble columns."""
    grid = square_grid(space.fine_n)
    adjacency = space.mesh.edge_adjacency()
    out = np.zeros((space.n_edge_dofs, space.n_dofs))
    for eid, ((ea, sa), (eb, sb)) in adjacency.items():
        if not space.edge_alive[eid]:
            continue
        row = space.edge_dof[eid]
        for (elem, side) in (((ea), sa), ((eb), sb)):
            dofs, values = space.elem_basis[elem]
            trace = grid.trace_row(side, space.h_loc)
            for a, dof in enumerate(dofs):
                out[row, dof] += 0.5 * float(trace @ values[a])
    return out

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from randpde.errors import GridMismatchError, ParameterError, ResolutionWarning
from randpde.femcore import SIDES, square_grid
from randpde.msfem import (CoarseMesh, CoarseSolution, _q1_space, baseline_solve,
                           build_cr_space, build_linear_space, compute_errors,
                           edge_average_matrix, max_mean_jump, msfem_solve)
from randpde.perforations import NoPerforations, RandomRectangles, build_perforations
from randpde.poisson import reference_solve


def f_one(x, y):
    return np.ones_like(x)


def f_zero(x, y):
    return np.zeros_like(x)


@pytest.fixture(scope="module")
def plain_space():
    return build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=16)


def test_edge_functions_have_unit_averages(plain_space):
    ea = edge_average_matrix(plain_space)
    n_e = plain_space.n_edge_dofs
    assert np.max(np.abs(ea[:, :n_e] - np.eye(n_e))) <= 1e-8
    if plain_space.with_bubbles:
        assert np.max(np.abs(ea[:, n_e:])) <= 1e-8


def test_edge_function_discontinuous_with_zero_mean_jump():
    # 3x3 mesh: the two elements sharing edge v(0,0) have different outer
    # boundaries, so the traces genuinely differ while the averages match
    mesh = CoarseMesh(3)
    space = build_cr_space(mesh, NoPerforations(), fine_n=16)
    grid = square_grid(16)
    eid = mesh.edge_id("v", 0, 0)
    (ea, sa), (eb, sb) = mesh.edge_adjacency()[eid]
    dof = space.edge_dof[eid]
    dofs_a, vals_a = space.elem_basis[ea]
    dofs_b, vals_b = space.elem_basis[eb]
    phi_a = vals_a[list(dofs_a).index(dof)]
    phi_b = vals_b[list(dofs_b).index(dof)]
    trace_a = phi_a[grid.side_nodes(sa)]
    trace_b = phi_b[grid.side_nodes(sb)]
    assert grid.trace_row(sa, space.h_loc) @ phi_a == pytest.approx(1.0, abs=1e-8)
    assert grid.trace_row(sb, space.h_loc) @ phi_b == pytest.approx(1.0, abs=1e-8)
    # pointwise traces differ even though the averages agree
    assert np.max(np.abs(trace_a - trace_b)) > 1e-2 * np.abs(trace_a).max()


def test_bubble_positive_in_the_bulk(plain_space):
    # the zero-average edge constraints force small sign changes along the
    # element boundary, so positivity holds in the bulk interior (inspected:
    # the quarter-inset core is positive, the peak sits at the center)
    fn = plain_space.fine_n
    for elem in ((1, 1), (2, 1)):
        dofs, values = plain_space.elem_basis[elem]
        assert plain_space.bubble_dof[elem] == dofs[-1]
        bubble = values[-1].reshape(fn + 1, fn + 1)
        core = bubble[fn // 4:3 * fn // 4 + 1, fn // 4:3 * fn // 4 + 1]
        assert core.min() > 0
        assert bubble.max() == pytest.approx(bubble[fn // 2, fn // 2])


def test_dead_edge_dropped():
    # rectangle swallowing the vertical edge x=0.5, y in [0, 0.5]
    mesh = CoarseMesh(2)
    perf = RandomRectangles(rects=((0.5, 0.25, 0.2, 0.7),))
    space = build_cr_space(mesh, perf, fine_n=16)
    eid = mesh.edge_id("v", 0, 0)
    assert not space.edge_alive[eid]
    assert eid not in space.edge_dof
    u = msfem_solve(space, f_one)
    assert np.all(np.isfinite(u.coeffs))


def test_dead_element_drops_bubble_and_edges():
    mesh = CoarseMesh(2)
    perf = RandomRectangles(rects=((0.25, 0.25, 0.52, 0.52),))
    space = build_cr_space(mesh, perf, fine_n=16)
    assert not space.elem_alive[0, 0]
    assert (0, 0) not in space.bubble_dof
    assert not space.edge_alive[mesh.edge_id("v", 0, 0)]
    assert not space.edge_alive[mesh.edge_id("h", 0, 0)]
    assert space.elem_alive[1, 1]
    u = msfem_solve(space, f_one)
    assert np.all(u.recon[0, 0] == 0.0)


def test_zero_rhs_gives_zero_solution(plain_space):
    u = msfem_solve(plain_space, f_zero)
    assert np.max(np.abs(u.coeffs)) == 0.0
    assert np.max(np.abs(u.recon)) == 0.0


def test_unperforated_accuracy_with_bubbles():
    ref = reference_solve(NoPerforations(), f_one, 512)
    space = build_cr_space(CoarseMesh(8), NoPerforations(), fine_n=32)
    u = msfem_solve(space, f_one)
    l2, h1 = compute_errors(u, ref)
    assert l2 <= 0.02
    assert h1 <= 0.2


def test_coarse_matrix_symmetric_positive_definite(plain_space):
    u = msfem_solve(plain_space, f_one)
    K = u.coarse_matrix.toarray()
    assert np.max(np.abs(K - K.T)) <= 1e-8 * np.abs(K).max()
    assert np.linalg.eigvalsh(K).min() > 0


def test_nonconformity_zero_mean_jumps():
    perf = build_perforations("shifted_periodic_discs", epsilon=0.25, radius_factor=0.2)
    space = build_cr_space(CoarseMesh(4), perf, fine_n=16)
    u = msfem_solve(space, f_one)
    scale = np.abs(u.recon).max() * space.mesh.H
    assert max_mean_jump(space, u) <= 1e-8 * scale


def _whspace_probe(space, elem, rng):
    """A random member of the orthogonal test space: vanishes on the outer
    boundary and in the perforations, zero averages on internal edges, zero
    element mean."""
    grid = square_grid(space.fine_n)
    mask = space.masks[elem]
    v = rng.normal(size=grid.nn)
    dirichlet = [s for s in SIDES
                 if space.mesh.element_side_edge(elem[0], elem[1], s) is None]
    fixed = set(grid.boundary_nodes(dirichlet).tolist())
    fixed.update(np.unique(grid.elem_nodes[mask.ravel()]).tolist())
    v[sorted(fixed)] = 0.0
    rows = [grid.trace_row(s, space.h_loc) for s in SIDES if s not in dirichlet]
    rows.append(grid.load_vector(np.ones(space.fine_n ** 2),
                                 np.ones_like(mask), space.h_loc))
    free = np.setdiff1d(np.arange(grid.nn), sorted(fixed))
    C = np.vstack(rows)[:, free]
    lam = np.linalg.solve(C @ C.T, C @ v[free])
    v[free] -= C.T @ lam
    return v


def test_basis_orthogonal_to_test_space():
    perf = build_perforations("periodic_discs", epsilon=0.25, radius_factor=0.2)
    space = build_cr_space(CoarseMesh(4), perf, fine_n=16)
    grid = square_grid(space.fine_n)
    rng = np.random.default_rng(5)
    for elem in ((1, 1), (2, 0), (0, 3)):
        dofs, values = space.elem_basis[elem]
        keep = ~space.masks[elem]
        for trial in range(3):
            v = _whspace_probe(space, elem, rng)
            stacked = np.vstack([values, v[None, :]])
            gram = grid.energy_products(stacked, keep)
            for a in range(len(dofs)):
                rel = abs(gram[a, -1]) / np.sqrt(gram[a, a] * gram[-1, -1])
                assert rel <= 1e-6


def test_compute_errors_self_and_zero():
    ref = reference_solve(NoPerforations(), f_one, 128)
    space = build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=16)
    u = msfem_solve(space, f_one)
    ratio = 128 // (4 * 16)
    recon = np.zeros_like(u.recon)
    for i in range(4):
        for j in range(4):
            recon[i, j] = ref.values[i * 16 * ratio:(i + 1) * 16 * ratio + 1:ratio,
                                     j * 16 * ratio:(j + 1) * 16 * ratio + 1:ratio]
    mirrored = CoarseSolution(m=u.m, fine_n=u.fine_n, method=u.method,
                              with_bubbles=u.with_bubbles, dof=u.dof,
                              solves=u.solves, coeffs=u.coeffs, recon=recon,
                              masks=u.masks, coarse_matrix=u.coarse_matrix)
    assert compute_errors(mirrored, ref) == (0.0, 0.0)
    zero = CoarseSolution(m=u.m, fine_n=u.fine_n, method=u.method,
                          with_bubbles=u.with_bubbles, dof=u.dof, solves=u.solves,
                          coeffs=u.coeffs, recon=np.zeros_like(u.recon),
                          masks=u.masks, coarse_matrix=u.coarse_matrix)
    assert compute_errors(zero, ref) == (1.0, 1.0)


def test_compute_errors_requires_integer_ratio():
    ref = reference_solve(NoPerforations(), f_one, 96)
    space = build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=16)
    u = msfem_solve(space, f_one)
    with pytest.raises(GridMismatchError):
        compute_errors(u, ref)


def test_compute_errors_warns_on_finer_reference():
    u = msfem_solve(build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=8), f_one)
    finer = reference_solve(NoPerforations(), f_one, 64)
    matched = reference_solve(NoPerforations(), f_one, 32)
    with pytest.warns(ResolutionWarning, match="finer"):
        compute_errors(u, finer)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compute_errors(u, matched)


def test_coarse_q1_accuracy_unperforated():
    ref = reference_solve(NoPerforations(), f_one, 512)
    u = baseline_solve(CoarseMesh(16), NoPerforations(), f_one,
                       method="coarse_q1", with_bubbles=False, fine_n=32)
    l2, _ = compute_errors(u, ref)
    assert l2 <= 0.01


def test_linear_baseline_unperforated_close_to_cr():
    ref = reference_solve(NoPerforations(), f_one, 512)
    lin = baseline_solve(CoarseMesh(8), NoPerforations(), f_one,
                         method="msfem_linear", with_bubbles=True, fine_n=32)
    l2, h1 = compute_errors(lin, ref)
    assert l2 <= 0.03
    assert h1 <= 0.2


def test_without_bubbles_view():
    space = build_cr_space(CoarseMesh(4), NoPerforations(), fine_n=8)
    bare = space.without_bubbles()
    assert bare.n_dofs == space.n_edge_dofs
    assert not bare.with_bubbles
    u = msfem_solve(bare, f_one)
    assert u.dof == bare.n_dofs


def _reference_basis(space, elem, dofs):
    """Plain per-element local solves: assemble, slice, factorize, then solve
    each basis function's right-hand side on its own."""
    grid, h, (i, j) = square_grid(space.fine_n), space.h_loc, elem
    A = grid.laplace() + grid.penalty_mass(space.masks[elem], space.kappa, h)
    internal = [s for s in SIDES if space.method == "cr"
                and space.mesh.element_side_edge(i, j, s) is not None]
    fixed = grid.boundary_nodes([s for s in SIDES if s not in internal])
    free = np.setdiff1d(np.arange(grid.nn), fixed)
    C = sp.csr_matrix(np.array([grid.trace_row(s, h)[free] for s in internal]))
    S = sp.bmat([[A[free][:, free], C.T], [C, None]], format="csc") if internal \
        else A[free][:, free].tocsc()
    lu = spla.splu(S)
    t = np.arange(space.fine_n + 1) / space.fine_n
    out = np.zeros((len(dofs), grid.nn))
    for row, dof in zip(out, dofs):
        rhs = np.zeros(S.shape[0])
        if space.bubble_dof.get(elem) == dof:
            rhs[:free.size] = grid.load_vector(np.ones(space.fine_n ** 2),
                                               ~space.masks[elem], h)[free]
        elif space.method == "cr":
            (a, sa), (b, sb) = space.mesh.edge_adjacency()[
                next(e for e, d in space.edge_dof.items() if d == dof)]
            rhs[free.size + internal.index(sa if a == elem else sb)] = 1.0
        else:
            a, b = next(n for n, d in space.node_dof.items() if d == dof)
            row[:] = np.outer(t if a > i else 1.0 - t, t if b > j else 1.0 - t).ravel()
            rhs[:free.size] = -(A[free][:, fixed] @ row[fixed])
        row[free] = lu.solve(rhs)[:free.size]
    return out


@pytest.mark.parametrize("geometry", ["rectangles", "shifted_discs"])
def test_local_engine_matches_per_element_solves(geometry):
    perf = (build_perforations("shifted_periodic_discs", epsilon=0.2, radius_factor=0.2)
            if geometry == "shifted_discs" else
            build_perforations("random_rectangles", count=8, width_range=(0.05, 0.15),
                               height_range=(0.05, 0.15), seed=11))
    mesh = CoarseMesh(5)
    cr = build_cr_space(mesh, perf, fine_n=16)
    spaces = [cr, cr.without_bubbles(), build_cr_space(mesh, perf, 16, with_bubbles=False),
              build_linear_space(mesh, perf, 16), _q1_space(mesh, perf, 16, None, True)]
    for space in spaces:
        # some local problems repeat, so the grouping is exercised
        assert space.factorizations < len(space.bubble_dof or space.elem_basis)
        for elem, (dofs, values) in space.elem_basis.items():
            if space.method == "coarse_q1":  # only its bubbles are local solves
                if elem not in space.bubble_dof:
                    continue
                dofs, values = dofs[-1:], values[-1:]
            assert np.array_equal(values, _reference_basis(space, elem, dofs)), \
                (space.method, elem)


def test_local_engine_counts_factorizations_apart_from_solves():
    discs = build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2)
    rects = build_perforations("random_rectangles", count=100, width_range=(0.02, 0.05),
                               height_range=(0.02, 0.05), seed=2026)
    cr = build_cr_space(CoarseMesh(5), discs, 32)
    linear = build_linear_space(CoarseMesh(5), discs, 32)
    q1 = _q1_space(CoarseMesh(5), discs, 32, None, True)
    assert (cr.factorizations, linear.factorizations, q1.factorizations) == (9, 1, 1)
    # every alive element solves one right-hand side per basis function
    assert (cr.solves, linear.solves, q1.solves) == (105, 89, 25)
    cr = build_cr_space(CoarseMesh(16), rects, 32)
    linear = build_linear_space(CoarseMesh(16), rects, 32)
    assert (cr.factorizations, linear.factorizations) == (168, 162)
    assert (cr.solves, linear.solves) == (1216, 1156)


def test_geometry_shared_and_read_only():
    perf = build_perforations("periodic_discs", epsilon=0.25, radius_factor=0.2)
    cr = build_cr_space(CoarseMesh(4), perf, 16)
    linear = build_linear_space(CoarseMesh(4), perf, 16)
    q1 = _q1_space(CoarseMesh(4), perf, 16, None, True)
    assert cr.masks is linear.masks is q1.masks
    assert cr.elem_alive is linear.elem_alive is q1.elem_alive
    for arr in (cr.masks, cr.elem_alive, cr.edge_alive):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = True


def test_unknown_method_rejected():
    with pytest.raises(ParameterError):
        baseline_solve(CoarseMesh(4), NoPerforations(), f_one, method="oversampling")

import warnings

import numpy as np
import pytest

from randpde.errors import GridMismatchError, ParameterError, ResolutionWarning
from randpde.femcore import SIDES, square_grid
from randpde.msfem import (CoarseMesh, CoarseSolution, baseline_solve,
                           build_cr_space, compute_errors, edge_average_matrix,
                           max_mean_jump, msfem_solve)
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


def test_unknown_method_rejected():
    with pytest.raises(ParameterError):
        baseline_solve(CoarseMesh(4), NoPerforations(), f_one, method="oversampling")

import gc
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from randpde import femcore, poisson
from randpde.errors import ResolutionWarning
from randpde.femcore import multigrid_preconditioner
from randpde.grid import cg_spd
from randpde.perforations import NoPerforations, build_perforations
from randpde.poisson import reference_solve


def f_one(x, y):
    return np.ones_like(x)


def unit_square_poisson_series(x, y, terms=199):
    """Independent oracle: double-sine series for -lap(u) = 1, u = 0 on the
    boundary of the unit square, truncated at odd mode `terms`."""
    total = np.zeros(np.broadcast(x, y).shape)
    for mm in range(1, terms + 1, 2):
        for nn in range(1, terms + 1, 2):
            coef = 16.0 / (np.pi ** 4 * mm * nn * (mm * mm + nn * nn))
            total += coef * np.sin(mm * np.pi * x) * np.sin(nn * np.pi * y)
    return total


def test_series_oracle_center_value():
    center = float(unit_square_poisson_series(0.5, 0.5))
    assert center == pytest.approx(0.0736713, abs=2e-7)


def test_reference_matches_series_at_center():
    ref = reference_solve(NoPerforations(), f_one, 256)
    oracle = float(unit_square_poisson_series(0.5, 0.5))
    assert abs(ref.value_at_center() - oracle) / oracle <= 1e-3


def test_reference_matches_series_everywhere():
    ref = reference_solve(NoPerforations(), f_one, 128)
    xs = np.linspace(0, 1, 129)
    exact = unit_square_poisson_series(xs[:, None], xs[None, :])
    assert np.max(np.abs(ref.values - exact)) <= 2e-4 * np.max(exact)


def test_penalization_contract_inside_perforations():
    perf = build_perforations("periodic_discs", epsilon=0.25, radius_factor=0.2)
    ref = reference_solve(perf, f_one, 128)
    assert ref.max_inside_perforations() <= 1e-4 * np.abs(ref.values).max()


def test_h1_norm_scales_like_epsilon():
    # halving the period roughly halves the solution's H1 size
    norms = {}
    for eps in (0.1, 0.05):
        perf = build_perforations("periodic_discs", epsilon=eps, radius_factor=0.2)
        ref = reference_solve(perf, f_one, 256)
        norms[eps] = ref.h1_seminorm()
    ratio = norms[0.1] / norms[0.05]
    assert 1.4 <= ratio <= 2.6


def periodic_cell_solution(p, radius_factor):
    """Independent oracle for the small-hole limit: nodal values w of the
    Q1-plus-penalty problem -lap w = 1 on the periodic unit cell split into
    p x p cells, with kappa = default_kappa(1 / p) on the cells whose centre
    lies in the centred disc. Built from the 1-D element matrices and
    solved directly; shape (p, p), indexed [ix, iy] with period p."""
    h = 1.0 / p
    k1 = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    m1 = np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    stiffness = np.kron(k1, m1) + np.kron(m1, k1)  # corners (0,0), (0,1), (1,0), (1,1)
    mass = np.kron(m1, m1)
    c = (np.arange(p) + 0.5) * h
    hole = ((c[:, None] - 0.5) ** 2 + (c[None, :] - 0.5) ** 2 <= radius_factor ** 2).ravel()
    cx, cy = np.divmod(np.arange(p * p), p)
    corners = np.stack([((cx + dx) % p) * p + (cy + dy) % p
                        for dx in (0, 1) for dy in (0, 1)], axis=1)
    blocks = stiffness + poisson.default_kappa(h) * hole[:, None, None] * mass
    rows = np.broadcast_to(corners[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(corners[:, None, :], blocks.shape).ravel()
    K = sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(p * p, p * p))
    load = np.zeros(p * p)
    np.add.at(load, corners.ravel(), h * h / 4.0)  # f = 1 on every cell
    return spla.spsolve(K.tocsc(), load).reshape(p, p)


@pytest.mark.parametrize("periods, bound", [(10, 1e-5), (20, 1e-11)])
def test_reference_matches_the_periodic_cell_away_from_the_boundary(periods, bound):
    # f = 1 with a hole in every period: away from the outer boundary the
    # reference is eps^2 w(x / eps), w the cell solution, up to terms that
    # decay exponentially with the distance in periods (Lions 1980). The
    # scaled cell problem has the reference's own matrix, so this checks
    # its mask, kappa, load and CG tolerance against a direct solve.
    p, radius_factor = 32, 0.2
    eps = 1.0 / periods
    perf = build_perforations("periodic_discs", epsilon=eps, radius_factor=radius_factor)
    ref = reference_solve(perf, f_one, p * periods)
    w = periodic_cell_solution(p, radius_factor)
    nodes = np.arange(p * periods + 1)
    far = nodes[np.minimum(nodes, p * periods - nodes) >= 0.4 * p * periods]
    expected = eps ** 2 * w[np.ix_(far % p, far % p)]
    error = np.max(np.abs(ref.values[np.ix_(far, far)] - expected)) / np.max(expected)
    assert error <= bound, error


def test_underresolved_reference_warns():
    perf = build_perforations("periodic_discs", epsilon=0.03, radius_factor=0.35)
    with pytest.warns(ResolutionWarning, match="under-resolves"):
        reference_solve(perf, f_one, 64)


def test_boundary_values_are_zero():
    ref = reference_solve(NoPerforations(), f_one, 64)
    assert np.all(ref.values[0, :] == 0)
    assert np.all(ref.values[-1, :] == 0)
    assert np.all(ref.values[:, 0] == 0)
    assert np.all(ref.values[:, -1] == 0)


# Criterion 8's random rectangles; at these N they span fewer than 4 cells.
RECTANGLES = dict(count=100, width_range=(0.02, 0.05), height_range=(0.02, 0.05))


def solve_recorded(monkeypatch, perf, n, jacobi=False):
    """reference_solve with its CG call recorded; jacobi=True drops the
    multigrid preconditioner, leaving the inverse diagonal."""
    calls = []

    def cg(K, b, tol, preconditioner=None):
        out = cg_spd(K, b, tol=tol, preconditioner=None if jacobi else preconditioner)
        calls.append({"K": K, "b": b, "x": out[0], "iterations": out[1]})
        return out
    monkeypatch.setattr(poisson, "cg_spd", cg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        ref = reference_solve(perf, f_one, n)
    (call,) = calls
    return ref, call


@pytest.mark.parametrize("perf, n", [
    (build_perforations("random_rectangles", seed=2026, **RECTANGLES), 128),
    (build_perforations("random_rectangles", seed=7, **RECTANGLES), 96),
    (build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2), 160),
    (NoPerforations(), 128),
    (build_perforations("random_rectangles", seed=2026, **RECTANGLES), 75),
], ids=["rectangles-2026", "rectangles-7", "discs", "none", "rectangles-odd"])
def test_multigrid_reference_matches_jacobi_cg(monkeypatch, perf, n):
    mg, _ = solve_recorded(monkeypatch, perf, n)
    jac, _ = solve_recorded(monkeypatch, perf, n, jacobi=True)
    assert np.abs(mg.values - jac.values).max() <= 1e-10 * np.abs(jac.values).max()


@pytest.mark.parametrize("n", [63, 64, 75, 125, 128, 250, 256])
def test_multigrid_iterations_bounded(monkeypatch, n):
    # Jacobi CG needs 274 iterations at N = 128, 543 at N = 250 and 1126 at
    # N = 512
    perf = build_perforations("random_rectangles", seed=2026, **RECTANGLES)
    _, call = solve_recorded(monkeypatch, perf, n)
    assert call["iterations"] <= 45


@pytest.mark.parametrize("n", [75, 96, 100, 160])
def test_odd_and_partly_coarsened_sizes_converge(monkeypatch, n):
    # 75 coarsens through 38 to 19 cells per side; 96, 100 and 160 coarsen
    # to 24, 25 and 20, not to 32, and factorize there
    perf = build_perforations("random_rectangles", seed=2026, **RECTANGLES)
    _, call = solve_recorded(monkeypatch, perf, n)
    K, b, x = call["K"], call["b"], call["x"]
    assert np.linalg.norm(K @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_v_cycle_is_symmetric_at_every_size():
    # CG needs a symmetric preconditioner: odd grids, whose coarse grid ends
    # in a cell one fine cell wide, must keep x.My = y.Mx as even ones do
    perf = build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2)
    rng = np.random.default_rng(3)
    for fn in range(2, 131):
        h = 1.0 / fn
        c = (np.arange(fn) + 0.5) * h
        mask = perf.indicator(c[:, None], c[None, :])
        K = femcore.penalized_diagonals(fn, mask, poisson.default_kappa(h), h, femcore.SIDES)
        M = multigrid_preconditioner(K, fn)
        x, y = rng.standard_normal((2, (fn - 1) ** 2))
        xMy, yMx = x @ M(y), y @ M(x)
        assert abs(xMy - yMx) <= 1e-12 * max(abs(xMy), 1e-300), fn


def _rectangles_operator(fn):
    perf = build_perforations("random_rectangles", seed=2026, **RECTANGLES)
    h = 1.0 / fn
    c = (np.arange(fn) + 0.5) * h
    mask = perf.indicator(c[:, None], c[None, :])
    return femcore.penalized_diagonals(fn, mask, poisson.default_kappa(h), h, femcore.SIDES)


@pytest.mark.parametrize("fn", [63, 64, 75, 128])
def test_axis_wise_transfers_match_kron(fn):
    # P1 along each axis is kron(P1, P1) and its transpose, to rounding: the
    # weights 1, 1/2, 1/4 are exact, only the order of the sums differs
    p1 = femcore._interpolation_1d(fn)
    P = sp.kron(p1, p1, format="csr")
    rng = np.random.default_rng(fn)
    x, y = rng.standard_normal(P.shape[1]), rng.standard_normal(P.shape[0])
    for got, want in ((femcore._prolong(p1, x), P @ x), (femcore._restrict(p1, y), P.T @ y)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("fn", [63, 64, 75, 128])
def test_probed_galerkin_operator_matches_triple_product(fn):
    # the nine coloured probes give P^T A P on its nine diagonals, exactly
    # symmetric, across the penalty jumps of the rectangles
    A = _rectangles_operator(fn)
    p1 = femcore._interpolation_1d(fn)
    P = sp.kron(p1, p1, format="csr")
    want = (P.T.tocsr() @ A.tocsr() @ P).tocsr()
    got = femcore._galerkin(A, p1)
    nc = p1.shape[1]
    assert isinstance(got, sp.dia_matrix) and got.shape == want.shape
    assert got.offsets.tolist() == [-nc - 1, -nc, -nc + 1, -1, 0, 1, nc - 1, nc, nc + 1]
    assert abs(got.tocsr() - want).max() <= 1e-14 * abs(want).max()
    assert (got.tocsr() != got.tocsr().T).nnz == 0


def test_reference_memory_in_fine_vectors():
    # tracemalloc's peak across the solve, in fine vectors of 8 (N - 1)^2
    # bytes: 34.3 with a CSR operator, kron transfers and a sparse triple
    # product per level; 22.8 with nine diagonals and probed coarse levels
    perf = build_perforations("random_rectangles", seed=2026, **RECTANGLES)
    n = 256
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            reference_solve(perf, f_one, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vectors = peak / (8 * (n - 1) ** 2)
    assert vectors < 28, vectors


def test_reference_solve_leaves_no_cyclic_garbage():
    # a hierarchy kept alive by a reference cycle would outlive the solve
    perf = build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2)
    reference_solve(perf, f_one, 128)
    gc.collect()
    gc.disable()
    try:
        reference_solve(perf, f_one, 128)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reference_solve_traced_peak():
    # the free-node stencil build with no full matrix, COO or slice: 10.8 MB
    # traced at N = 256 (20.2 MB with a CSR operator and kron transfers),
    # where a full-grid assembly and slicing reached 41.4 MB
    tracemalloc.start()
    try:
        reference_solve(NoPerforations(), f_one, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28e6, peak


def test_batched_gram_products_match_einsum():
    # one batched call over a stack of elements, and an unbatched call per
    # element, against a per-element einsum, for every kept-cell count the
    # einsum path search treats differently
    grid = femcore.SquareGrid(32)
    rng = np.random.default_rng(3)
    counts = (1, 3, 8, 16, 24, 31, 32, 64, 100, 256, 577, 1024)
    for rows in range(1, 7):
        values = rng.normal(size=(len(counts), rows, grid.nn))
        keep = np.array([rng.permutation(32 * 32) < cells for cells in counts])
        keep = keep.reshape(len(counts), 32, 32)
        for element, gram in ((femcore.KLAP, grid.energy_products),
                              (femcore.MASS, lambda v, kp: grid.l2_products(v, kp, 1.0))):
            batched = gram(values, keep)
            assert batched.shape == (len(counts), rows, rows)
            for k, cells in enumerate(counts):
                ve = values[k][:, grid.elem_nodes][:, keep[k].ravel(), :]
                looped = np.einsum("aei,ij,bej->ab", ve, element, ve, optimize=True)
                bound = 1e-13 * np.max(np.abs(looped))
                assert np.max(np.abs(batched[k] - looped)) <= bound, (rows, cells)
                assert np.max(np.abs(gram(values[k], keep[k]) - looped)) <= bound, \
                    (rows, cells)

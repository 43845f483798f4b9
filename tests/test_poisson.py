import gc
import warnings

import numpy as np
import pytest

from randpde import femcore, poisson
from randpde.errors import ParameterError, ResolutionWarning
from randpde.femcore import multigrid_preconditioner, square_grid
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


def test_resolution_warning_and_strict_mode():
    perf = build_perforations("periodic_discs", epsilon=0.03, radius_factor=0.35)
    with pytest.warns(ResolutionWarning):
        reference_solve(perf, f_one, 64)
    with pytest.raises(ParameterError):
        reference_solve(perf, f_one, 64, strict=True)


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
        out = femcore.cg_spd(K, b, tol=tol, preconditioner=None if jacobi else preconditioner)
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
], ids=["rectangles-2026", "rectangles-7", "discs", "none"])
def test_multigrid_reference_matches_jacobi_cg(monkeypatch, perf, n):
    mg, _ = solve_recorded(monkeypatch, perf, n)
    jac, _ = solve_recorded(monkeypatch, perf, n, jacobi=True)
    assert np.abs(mg.values - jac.values).max() <= 1e-10 * np.abs(jac.values).max()


@pytest.mark.parametrize("n", [64, 128, 256])
def test_multigrid_iterations_bounded(monkeypatch, n):
    # Jacobi CG needs 274 iterations at N = 128 and 1126 at N = 512
    perf = build_perforations("random_rectangles", seed=2026, **RECTANGLES)
    _, call = solve_recorded(monkeypatch, perf, n)
    assert call["iterations"] <= 45


@pytest.mark.parametrize("n, multigrid", [(75, False), (96, True), (100, True), (160, True)])
def test_odd_and_partly_coarsened_sizes_converge(monkeypatch, n, multigrid):
    # 75 cannot coarsen and keeps Jacobi; 96, 100 and 160 coarsen to 24, 25
    # (odd) and 20 cells per side, not to 32, and factorize there
    perf = build_perforations("random_rectangles", seed=2026, **RECTANGLES)
    _, call = solve_recorded(monkeypatch, perf, n)
    assert (multigrid_preconditioner(call["K"], n) is not None) == multigrid
    K, b, x = call["K"], call["b"], call["x"]
    assert np.linalg.norm(K @ x - b) <= 1e-9 * np.linalg.norm(b)


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


def test_reference_solve_frees_its_grid():
    # the full N^2 Laplacian (112 MB at N = 1024) must not outlive the solve
    reference_solve(NoPerforations(), f_one, 256)
    assert square_grid(256)._k0 is None


def test_cached_gram_path_matches_searched_path():
    # the search switches contraction order near 32 kept cells, so small
    # cell counts (few kept or few masked cells of an element) are included
    grid = femcore.SquareGrid(32)
    rng = np.random.default_rng(3)
    for rows in range(1, 7):
        for cells in (1, 3, 8, 16, 24, 31, 32, 64, 100, 256, 577, 1024):
            values = rng.normal(size=(rows, grid.nn))
            keep = np.arange(32 * 32) < cells
            ve = values[:, grid.elem_nodes][:, keep, :]
            for element, products in ((femcore.KLAP, grid.energy_products(values, keep)),
                                      (femcore.MASS, grid.l2_products(values, keep, 1.0))):
                searched = np.einsum("aei,ij,bej->ab", ve, element, ve, optimize=True)
                assert np.array_equal(products, searched), (rows, cells)

import numpy as np
import pytest

from randpde.errors import GridMismatchError
from randpde.fields import Checkerboard, Configuration, PerturbedPeriodic, sqs1_exact_sample
from randpde.sqs import (_cell_flux_integrals, pair_correlation_sums,
                         sqs_auxiliary, sqs_condition_values)

ID = np.eye(2)
LAW = Checkerboard(3.0, 20.0)  # mean medium 11.5, phase difference 17


def test_zero_perturbation_gives_zero_integrals():
    aux = sqs_auxiliary(PerturbedPeriodic(a_per=11.5 * ID, c_per=0 * ID, eta=0.5), n=4, r=2)
    assert np.max(np.abs(aux.i_n)) == 0.0
    assert aux.i_inf.shape == (2, 2)
    assert np.max(np.abs(aux.i_inf)) == 0.0


def test_cell_integrals_sum_to_zero():
    # for constant c1 the box integral of c1 grad(phi) vanishes by periodicity
    aux = sqs_auxiliary(LAW, n=6, r=4)
    total = aux.i_n.sum(axis=(0, 1))
    assert np.max(np.abs(total)) <= 1e-8 * np.abs(aux.i_n).max()


A_ANISO = np.array([[3.0, 0.5], [0.5, 2.0]])
C_ANISO = np.array([[10.0, -1.0], [-1.0, 6.0]])


@pytest.mark.parametrize("law, c0, c1", [
    (LAW, 11.5 * ID, 17.0 * ID),
    (PerturbedPeriodic(a_per=A_ANISO, c_per=C_ANISO, eta=0.3), A_ANISO + 0.3 * C_ANISO, C_ANISO),
], ids=["checkerboard", "anisotropic"])
def test_auxiliary_reads_its_media_off_the_law(law, c0, c1):
    # the law's mean medium and phase difference are the (c0, c1) that
    # callers once passed by hand, bit for bit
    aux = sqs_auxiliary(law, n=4, r=2)
    i_n = _cell_flux_integrals(c0, c1, 4, 2)
    i_big = _cell_flux_integrals(c0, c1, 24, 2)
    assert np.array_equal(aux.i_n, i_n)
    assert np.array_equal(aux.i_inf, i_big[0, 0])
    assert aux.solves == 4


def test_source_shift_translates_integrals():
    i0 = _cell_flux_integrals(11.5 * ID, 17.0 * ID, 5, 4)
    # solving with the source moved to cell (2, 1) must shift the integrals;
    # the shifted problems use Jacobi CG, independent of the FFT solve above
    from randpde.grid import periodic_grid, solve_singular_system, GX, GY
    from randpde.correctors import E1, E2
    n, r = 5, 4
    grid = periodic_grid(n, r)
    cells = np.broadcast_to(11.5 * ID, (n, n, 2, 2)).copy()
    K = grid.assemble_stiffness(cells)
    shifted = np.zeros_like(i0)
    in_cell = grid.cell_of_element == 2 * n + 1
    for col, p in enumerate((E1, E2)):
        c1p = (17.0 * ID) @ p
        fe = -(c1p[0] * GX + c1p[1] * GY) * 0.5 * grid.h
        b = np.bincount(grid.elem_nodes[in_cell].ravel(),
                        weights=np.tile(fe, (int(in_cell.sum()), 1)).ravel(),
                        minlength=grid.ndof)
        phi, _, _ = solve_singular_system(K, b, tol=1e-11)
        flux = grid.element_gradient_integrals(phi) @ (17.0 * ID).T
        for row in range(2):
            np.add.at(shifted.reshape(n * n, 2, 2)[:, row, col], grid.cell_of_element,
                      flux[:, row])
    rolled = np.roll(shifted, shift=(-2, -1), axis=(0, 1))
    assert np.max(np.abs(rolled - i0)) <= 1e-8 * np.abs(i0).max()


def test_pair_correlation_sums_match_direct():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 5))
    s = pair_correlation_sums(x)
    for dx in range(5):
        for dy in range(5):
            direct = float(np.sum(x * np.roll(x, shift=(-dx, -dy), axis=(0, 1))))
            assert s[dx, dy] == pytest.approx(direct, abs=1e-10)


def test_balanced_configuration_satisfies_first_condition_exactly():
    aux = sqs_auxiliary(LAW, n=4, r=2)
    cfg = sqs1_exact_sample(4, seed=5, index=2)
    (s1,), (s2,) = sqs_condition_values([cfg], aux)
    assert s1 == 0.0
    assert s2 >= 0.0


def test_all_ones_first_moment_is_half():
    aux = sqs_auxiliary(LAW, n=4, r=2)
    cfg = Configuration(n=4, draws=np.ones((4, 4), dtype=np.uint8), seed=0, index=0)
    (s1,), _ = sqs_condition_values([cfg], aux)
    assert s1 == pytest.approx(0.5, abs=1e-15)


def test_residual_distribution_is_spread_out():
    aux = sqs_auxiliary(LAW, n=8, r=4)
    _, residuals = sqs_condition_values(
        (sqs1_exact_sample(8, seed=17, index=i) for i in range(2000)), aux)
    assert residuals.std() > 0
    assert np.quantile(residuals, 0.05) < np.median(residuals)


def test_mismatched_sizes_rejected():
    aux = sqs_auxiliary(LAW, n=4, r=2)
    cfg = sqs1_exact_sample(6, seed=0, index=0)
    with pytest.raises(GridMismatchError):
        sqs_condition_values([cfg], aux)


def test_stacked_ranking_matches_single_calls():
    # a pool spanning three blocks ranks as one call per configuration does
    from randpde.sqs import RANK_BLOCK
    aux = sqs_auxiliary(LAW, n=4, r=2)
    pool = [sqs1_exact_sample(4, seed=9, index=i) for i in range(2 * RANK_BLOCK + 7)]
    s1, s2 = sqs_condition_values(iter(pool), aux)
    single = np.array([np.concatenate(sqs_condition_values([cfg], aux)) for cfg in pool])
    assert s1.shape == s2.shape == (len(pool),)
    assert np.array_equal(s1, single[:, 0])
    assert np.allclose(s2, single[:, 1], rtol=1e-12, atol=0)
    assert np.array_equal(np.argsort(s2, kind="stable"), np.argsort(single[:, 1], kind="stable"))
    with pytest.raises(GridMismatchError):
        sqs_condition_values(pool[:3] + [sqs1_exact_sample(6, seed=0, index=0)], aux)

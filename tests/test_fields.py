import numpy as np
import pytest
from scipy import stats

from randpde.errors import EllipticityError, InfeasibilityError, ParameterError
from randpde.fields import (Checkerboard, Configuration, PerturbedPeriodic,
                            antithetic_transform, realize_field,
                            sample_configuration, sqs1_exact_sample)

ID = np.eye(2)


def test_checkerboard_shape_and_values():
    law = Checkerboard(3.0, 20.0)
    c = sample_configuration(law, 2, seed=7, index=0)
    assert c.draws.shape == (2, 2)
    assert set(np.unique(c.draws)) <= {0, 1}


def test_eta_zero_gives_all_zeros():
    law = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=0.0)
    c = sample_configuration(law, 8, seed=1, index=5)
    assert not c.draws.any()


def test_eta_one_gives_all_ones():
    law = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=1.0)
    c = sample_configuration(law, 8, seed=1, index=5)
    assert c.draws.all()


def test_checkerboard_fraction_and_determinism():
    law = Checkerboard(3.0, 20.0)
    c1 = sample_configuration(law, 64, seed=42, index=3)
    c2 = sample_configuration(law, 64, seed=42, index=3)
    assert np.array_equal(c1.draws, c2.draws)
    assert abs(c1.ones_fraction - 0.5) < 0.05
    c3 = sample_configuration(law, 64, seed=42, index=4)
    assert not np.array_equal(c1.draws, c3.draws)


def test_invalid_parameters_rejected():
    with pytest.raises(ParameterError):
        Checkerboard(-1.0, 20.0)
    with pytest.raises(ParameterError):
        PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=1.5)
    with pytest.raises(ParameterError):
        sample_configuration(Checkerboard(3.0, 20.0), 0, seed=0, index=0)


def test_non_elliptic_phases_rejected():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(EllipticityError, match="a_per is not"):
        PerturbedPeriodic(a_per=indefinite, c_per=0 * ID, eta=0.5)
    # a_per alone is SPD; the perturbed phase 3 - 4 is not
    with pytest.raises(EllipticityError, match=r"a_per \+ c_per"):
        PerturbedPeriodic(a_per=3 * ID, c_per=-4 * ID, eta=0.5)


def test_law_phase_matrices_are_read_only():
    # the law checks its phases once, so they cannot change afterwards
    a = 3 * ID
    law = PerturbedPeriodic(a_per=a, c_per=17 * ID, eta=0.5)
    with pytest.raises(ValueError):
        law.a_per[0, 0] = -1.0
    with pytest.raises(ValueError):
        law.c_per[0, 0] = -10.0
    a[0, 0] = -1.0  # the caller's array stays its own
    assert law.a_per[0, 0] == 3.0


def test_antithetic_flips_all_zeros():
    c = Configuration(n=3, draws=np.zeros((3, 3), dtype=np.uint8), seed=0, index=0)
    t = antithetic_transform(c)
    assert t.draws.all()
    assert t.antithetic


def test_antithetic_is_involutive():
    law = Checkerboard(3.0, 20.0)
    c = sample_configuration(law, 16, seed=5, index=9)
    back = antithetic_transform(antithetic_transform(c))
    assert np.array_equal(back.draws, c.draws)
    assert not back.antithetic


def test_antithetic_fraction_identity():
    law = Checkerboard(3.0, 20.0)
    c = sample_configuration(law, 64, seed=11, index=0)
    t = antithetic_transform(c)
    assert t.ones_fraction == pytest.approx(1.0 - c.ones_fraction, abs=1e-12)


def test_antithetic_general_eta_preserves_law():
    # flip happens in uniform space, so the marginal stays Bernoulli(eta)
    law = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=0.3)
    fractions = []
    for i in range(200):
        c = sample_configuration(law, 16, seed=77, index=i)
        t = antithetic_transform(c)
        back = antithetic_transform(t)
        assert np.array_equal(back.draws, c.draws)
        fractions.append(t.ones_fraction)
    se = np.sqrt(0.3 * 0.7 / (200 * 16 * 16))
    assert abs(np.mean(fractions) - 0.3) < 4 * se


def test_antithetic_marginal_matches_at_half():
    # per-cell marginal of the flipped field is Bernoulli(1/2) at n=64; with
    # 4096 simultaneous cells a raw 3-sigma bound is expected to fail by
    # chance (~12 cells), so the bound carries the family-size adjustment
    law = Checkerboard(3.0, 20.0)
    m = 400
    count = np.zeros((64, 64))
    for i in range(m):
        count += antithetic_transform(sample_configuration(law, 64, seed=3, index=i)).draws
    sigma = np.sqrt(0.25 / m)
    assert np.all(np.abs(count / m - 0.5) < 4.5 * sigma)


def test_realize_checkerboard_phase_values():
    law = Checkerboard(3.0, 20.0)
    c = Configuration(n=2, draws=np.array([[0, 1], [1, 0]], dtype=np.uint8),
                      seed=0, index=0)
    f = realize_field(law, c)
    assert np.allclose(f.cells[0, 0], 3 * ID)
    assert np.allclose(f.cells[0, 1], 20 * ID)
    assert np.allclose(f.cells[1, 0], 20 * ID)
    assert np.allclose(f.cells[1, 1], 3 * ID)


@pytest.mark.parametrize("alpha, beta", [(3.0, 20.0), (1.0, 100.0), (5.0, 5.0)])
def test_checkerboard_is_the_perturbed_law_at_half(alpha, beta):
    # alpha + (beta - alpha) is beta exactly for these pairs, so the
    # defect form keeps the checkerboard's phase bits
    law = Checkerboard(alpha, beta)
    assert isinstance(law, PerturbedPeriodic)
    assert law.eta == 0.5
    a0, a1 = law.phase_matrices()
    assert np.array_equal(a0, alpha * ID)
    assert np.array_equal(a1, beta * ID)


def test_realize_perturbed_eta_zero_is_background():
    law = PerturbedPeriodic(a_per=np.array([[4.0, 1.0], [1.0, 5.0]]),
                            c_per=2 * ID, eta=0.0)
    c = sample_configuration(law, 6, seed=0, index=0)
    f = realize_field(law, c)
    assert np.allclose(f.cells, np.broadcast_to(law.a_per, (6, 6, 2, 2)))


def test_realize_antithetic_swaps_phases():
    law = Checkerboard(3.0, 20.0)
    c = sample_configuration(law, 8, seed=2, index=1)
    f = realize_field(law, c)
    g = realize_field(law, antithetic_transform(c))
    swapped = np.where(np.isclose(f.cells[:, :, 0, 0], 3.0)[:, :, None, None],
                       20 * ID, 3 * ID)
    assert np.allclose(g.cells, swapped)


def test_stationarity_histogram_between_blocks():
    # counts of ones over two disjoint halves are homogeneous (chi-square, 5%)
    law = Checkerboard(3.0, 20.0)
    ones = np.zeros(2)
    zeros = np.zeros(2)
    for i in range(50):
        d = sample_configuration(law, 64, seed=13, index=i).draws
        for b, block in enumerate((d[:32, :], d[32:, :])):
            ones[b] += block.sum()
            zeros[b] += block.size - block.sum()
    table = np.array([ones, zeros])
    _, pvalue, _, _ = stats.chi2_contingency(table)
    assert pvalue > 0.05


def test_sqs1_forced_count():
    c = sqs1_exact_sample(2, seed=1, index=0)
    assert int(c.draws.sum()) == 2


def test_sqs1_centered_sum_is_exactly_zero():
    c = sqs1_exact_sample(10, seed=9, index=4)
    assert float((c.draws.astype(float) - 0.5).sum()) == 0.0
    assert c.balanced


def test_sqs1_uniform_over_balanced_configurations():
    # all C(4,2) = 6 balanced 2x2 configurations, each with frequency 1/6
    counts = {}
    trials = 3000
    for i in range(trials):
        c = sqs1_exact_sample(2, seed=21, index=i)
        counts[c.draws.tobytes()] = counts.get(c.draws.tobytes(), 0) + 1
    assert len(counts) == 6
    for v in counts.values():
        assert abs(v / trials - 1 / 6) < 0.05


def test_sqs1_infeasible_odd_board():
    with pytest.raises(InfeasibilityError):
        sqs1_exact_sample(3, seed=0, index=0)


def test_configuration_immutable():
    c = sqs1_exact_sample(4, seed=0, index=0)
    with pytest.raises(ValueError):
        c.draws[0, 0] = 1

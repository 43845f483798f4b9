import numpy as np
import pytest

from randpde import estimators
from randpde.defects import defect_coefficients
from randpde.errors import (ComparabilityError, DegenerateControlWarning,
                            GridMismatchError, InvariantError, ParameterError)
from randpde.estimators import (antithetic_estimate, compare_strategies,
                                control_variate_estimate, mc_estimate,
                                sqs_estimate, write_reports_csv)
from randpde.fields import (Checkerboard, PerturbedPeriodic, antithetic_transform,
                            realize_field, sample_configuration)
from randpde.sqs import sqs_auxiliary

ID = np.eye(2)


def test_constant_law_mean_exact_and_zero_variance():
    law = Checkerboard(5.0, 5.0)
    rep = mc_estimate(law, n=3, r=2, m=4, seed=0)
    assert np.max(np.abs(rep.mean - 5 * ID)) <= 1e-10
    assert np.max(rep.var) <= 1e-20
    assert rep.solves == 8


def test_antithetic_constant_law_matches_mc():
    law = Checkerboard(5.0, 5.0)
    mc = mc_estimate(law, n=3, r=2, m=4, seed=0)
    av = antithetic_estimate(law, n=3, r=2, m_pairs=4, seed=0)
    assert np.allclose(av.mean, mc.mean, atol=1e-12)
    assert np.max(av.var) <= 1e-20
    assert av.solves == 16


def test_mc_report_is_deterministic():
    law = Checkerboard(3.0, 20.0)
    a = mc_estimate(law, n=4, r=2, m=6, seed=99)
    b = mc_estimate(law, n=4, r=2, m=6, seed=99)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.var, b.var)
    assert a.ci95[0, 0] == pytest.approx(1.96 * np.sqrt(a.var[0, 0] / a.m), rel=1e-12)


def test_antithetic_unbiased_against_mc():
    law = Checkerboard(3.0, 20.0)
    mc = mc_estimate(law, n=6, r=4, m=100, seed=7)
    av = antithetic_estimate(law, n=6, r=4, m_pairs=50, seed=7)
    for (i, j) in ((0, 0), (1, 1)):
        assert abs(av.mean[i, j] - mc.mean[i, j]) <= av.ci95[i, j] + mc.ci95[i, j]


def test_antithetic_reduces_variance():
    law = Checkerboard(3.0, 20.0)
    mc = mc_estimate(law, n=6, r=4, m=120, seed=3)
    av = antithetic_estimate(law, n=6, r=4, m_pairs=60, seed=3)
    # equal-cost gain on the 11 entry should be well above 1
    gain = mc.var[0, 0] / (2 * av.var[0, 0])
    assert gain > 1.5


def test_degenerate_control_falls_back_to_mc():
    law = PerturbedPeriodic(a_per=3 * ID, c_per=0 * ID, eta=0.5)
    defects = defect_coefficients(law, n=4, r=2)
    mc = mc_estimate(law, n=4, r=2, m=8, seed=5)
    with pytest.warns(DegenerateControlWarning):
        cv = control_variate_estimate(defects, m=8, order=1, seed=5)
    assert cv.degenerate_control
    assert np.array_equal(cv.mean, mc.mean)
    assert np.array_equal(cv.var, mc.var)


def test_control_variate_reduces_variance_order1():
    law = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=0.5)
    defects = defect_coefficients(law, n=6, r=4)
    mc = mc_estimate(law, n=6, r=4, m=80, seed=11)
    cv = control_variate_estimate(defects, m=80, order=1, seed=11)
    assert cv.var[0, 0] < mc.var[0, 0]
    assert abs(cv.mean[0, 0] - mc.mean[0, 0]) <= cv.ci95[0, 0] + mc.ci95[0, 0]
    assert len(cv.rho) == 1


def test_control_variate_order2_beats_order1():
    law = PerturbedPeriodic(a_per=3 * ID, c_per=17 * ID, eta=0.5)
    defects = defect_coefficients(law, n=6, r=4, order=2)
    cv1 = control_variate_estimate(defects, m=80, order=1, seed=11)
    cv2 = control_variate_estimate(defects, m=80, order=2, seed=11)
    assert cv2.var[0, 0] < cv1.var[0, 0]
    assert len(cv2.rho) == 2


def test_control_variate_runs_at_its_catalogs_law_n_and_r():
    # the catalog carries (law, n, r): the cv report is made there, and it
    # corrects the samples mc draws there
    law = Checkerboard(3.0, 20.0)
    defects = defect_coefficients(law, n=4, r=2)
    tensors = {}
    mc_estimate(law, n=4, r=2, m=6, seed=3, tensors=tensors)
    cv = control_variate_estimate(defects, m=6, order=1, seed=3, tensors=tensors)
    assert (cv.strategy, cv.law, cv.n, cv.r) == ("cv1", law.describe(), 4, 2)
    assert len(tensors) == 6


def _columns(m=60, seed=4):
    rng = np.random.default_rng(seed)
    c1, c2, noise = rng.normal(size=(3, m))
    return 2.0 * c1 - 0.7 * c2 + 0.1 * noise, c1, 1e-3 * c2 + 0.5 * c1


def _one_control_rho(x, c):
    return np.cov(x, c, ddof=1)[0, 1] / np.var(c, ddof=1)


def test_control_coefficients_one_control_is_cov_over_var():
    x, c1, _ = _columns()
    rho, degenerate = estimators._control_coefficients(x, np.array([c1]))
    assert rho.shape == (1,)
    assert rho[0] == pytest.approx(_one_control_rho(x, c1), rel=1e-12)
    assert not degenerate


def test_control_coefficients_two_controls_match_least_squares():
    x, c1, c2 = _columns()
    rho, degenerate = estimators._control_coefficients(x, np.array([c1, c2]))
    cols = np.stack([c1 - c1.mean(), c2 - c2.mean()], axis=1)
    expected = np.linalg.lstsq(cols, x - x.mean(), rcond=None)[0]
    assert np.max(np.abs(rho - expected)) <= 1e-10 * np.abs(expected).max()
    assert not degenerate


def test_control_coefficients_drop_a_collinear_second_control():
    x, c1, _ = _columns()
    rho, _ = estimators._control_coefficients(x, np.array([c1, -3.0 * c1]))
    assert rho[1] == 0.0
    assert rho[0] == pytest.approx(_one_control_rho(x, c1), rel=1e-12)


def test_control_coefficients_zero_variance_control_gets_zero():
    x, c1, _ = _columns()
    flat = np.full_like(c1, 0.25)
    rho, degenerate = estimators._control_coefficients(x, np.array([flat, c1]))
    assert rho[0] == 0.0
    assert rho[1] == pytest.approx(_one_control_rho(x, c1), rel=1e-12)
    assert not degenerate
    rho, degenerate = estimators._control_coefficients(x, np.array([flat, 0.0 * c1]))
    assert np.array_equal(rho, [0.0, 0.0])
    assert degenerate


def test_sqs_ranked_equals_exact_without_selection_pressure():
    law = Checkerboard(3.0, 20.0)
    aux = sqs_auxiliary(law, n=4, r=2)
    exact = sqs_estimate(law, n=4, r=2, m_keep=6, seed=2)
    ranked = sqs_estimate(law, n=4, r=2, m_keep=6, seed=2, pool=6, aux=aux)
    # the estimate ranks exactly when it is given the auxiliary integrals
    assert (exact.strategy, ranked.strategy) == ("sqs1", "sqs2")
    assert np.array_equal(exact.mean, ranked.mean)
    assert np.array_equal(exact.var, ranked.var)
    assert exact.rejected == 0
    assert ranked.rejected == 0


@pytest.mark.parametrize("n, r", [(4, 4), (6, 2)], ids=["other-r", "other-n"])
def test_sqs_refuses_auxiliary_integrals_of_another_grid(monkeypatch, n, r):
    law = Checkerboard(3.0, 20.0)
    aux = sqs_auxiliary(law, n=4, r=2)

    def never(*args, **kwargs):
        raise AssertionError("sqs_estimate drew before checking its auxiliary integrals")

    monkeypatch.setattr(estimators, "sqs1_exact_sample", never)
    with pytest.raises(GridMismatchError, match="n=4, r=2"):
        sqs_estimate(law, n=n, r=r, m_keep=3, seed=2, pool=10, aux=aux)


def test_sqs_refuses_auxiliary_integrals_of_another_law(monkeypatch):
    # same n, r and eta, other phases: ranking with the checkerboard's
    # integrals would select for the wrong second moment
    other = PerturbedPeriodic(a_per=[[3.0, 0.5], [0.5, 2.0]], c_per=[[10.0, -1.0], [-1.0, 6.0]],
                              eta=0.5)
    aux = sqs_auxiliary(Checkerboard(3, 20), n=4, r=2)

    def never(*args, **kwargs):
        raise AssertionError("sqs_estimate drew before checking its auxiliary integrals")

    monkeypatch.setattr(estimators, "sqs1_exact_sample", never)
    with pytest.raises(ParameterError, match="solved for perturbed"):
        sqs_estimate(other, 4, 2, 3, 0, pool=20, aux=aux)
    # the law it was solved for, rebuilt, compares equal
    assert aux.law == Checkerboard(3.0, 20.0) and aux.law != other


def test_sqs_exact_reduces_variance():
    law = Checkerboard(3.0, 20.0)
    mc = mc_estimate(law, n=6, r=4, m=80, seed=23)
    s1 = sqs_estimate(law, n=6, r=4, m_keep=80, seed=23)
    assert s1.var[0, 0] < mc.var[0, 0]


def test_sqs_ranked_selection_reports_rejections():
    law = Checkerboard(3.0, 20.0)
    aux = sqs_auxiliary(law, n=4, r=2)
    rep = sqs_estimate(law, n=4, r=2, m_keep=5, seed=2, pool=40, aux=aux)
    assert rep.rejected == 35
    assert rep.m == 5
    assert rep.solves == 10


def test_compare_single_mc_factor_one():
    law = Checkerboard(3.0, 20.0)
    mc = mc_estimate(law, n=4, r=2, m=20, seed=1)
    table = compare_strategies([mc])
    row = table.row("mc", "11")
    assert row["factor_equal_cost"] == pytest.approx(1.0)
    assert row["factor_realized"] == pytest.approx(1.0)


def test_compare_rejects_mismatched_reports():
    law = Checkerboard(3.0, 20.0)
    a = mc_estimate(law, n=4, r=2, m=10, seed=1)
    b = mc_estimate(law, n=5, r=2, m=10, seed=1)
    with pytest.raises(ComparabilityError):
        compare_strategies([a, b])
    with pytest.raises(ComparabilityError):
        compare_strategies([antithetic_estimate(law, n=4, r=2, m_pairs=5, seed=1)])


def test_compare_doubled_m_realized_factor_two():
    # variance of the mean scales like 1/m
    law = Checkerboard(3.0, 20.0)
    base = mc_estimate(law, n=4, r=2, m=200, seed=40)
    double = mc_estimate(law, n=4, r=2, m=400, seed=41)
    table = compare_strategies([base, double])
    realized = [row["factor_realized"] for row in table.rows
                if row["entry"] == "11" and row is not table.rows[0]]
    assert realized[-1] == pytest.approx(2.0, rel=0.3)


def test_equal_cost_factor_accounts_for_pair_cost():
    law = Checkerboard(3.0, 20.0)
    mc = mc_estimate(law, n=6, r=2, m=100, seed=9)
    av = antithetic_estimate(law, n=6, r=2, m_pairs=50, seed=9)
    table = compare_strategies([mc, av])
    row = table.row("antithetic", "11")
    expected = (mc.var[0, 0] * 2) / (av.var[0, 0] * 4)
    assert row["factor_equal_cost"] == pytest.approx(expected, rel=1e-12)


def test_reports_csv_schema(tmp_path):
    law = Checkerboard(3.0, 20.0)
    mc = mc_estimate(law, n=4, r=2, m=10, seed=1)
    av = antithetic_estimate(law, n=4, r=2, m_pairs=5, seed=1)
    path = tmp_path / "reports.csv"
    write_reports_csv([mc, av], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "strategy,n,r,m,entry,mean,var,ci95,solves,rejected,rho"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "mc" and first[4] == "11"
    assert float(first[5]) == pytest.approx(mc.mean[0, 0])


def test_parameter_validation():
    law = Checkerboard(3.0, 20.0)
    with pytest.raises(ParameterError):
        mc_estimate(law, n=4, r=2, m=1, seed=0)
    with pytest.raises(ParameterError):
        sqs_estimate(law, n=4, r=2, m_keep=4, seed=0, pool=2,
                     aux=sqs_auxiliary(law, n=4, r=2))
    with pytest.raises(ParameterError):
        control_variate_estimate(None, m=4, order=3, seed=0)


def test_voigt_reuss_failure_names_the_flipped_field(monkeypatch):
    # both members of an antithetic pair share (seed, index); the message
    # tells them apart
    law = Checkerboard(3.0, 20.0)
    flipped = {realize_field(law, antithetic_transform(sample_configuration(law, 4, 8, i)))
               .cells.tobytes() for i in range(3)}
    check = estimators.check_voigt_reuss
    monkeypatch.setattr(estimators, "check_voigt_reuss",
                        lambda fld, tensor: fld.cells.tobytes() not in flipped
                        and check(fld, tensor))
    mc_estimate(law, n=4, r=2, m=3, seed=8)  # the unflipped fields pass
    with pytest.raises(InvariantError, match=r"\(seed=8, index=0, antithetic=True, "
                                             r"balanced=False\)"):
        antithetic_estimate(law, n=4, r=2, m_pairs=3, seed=8)

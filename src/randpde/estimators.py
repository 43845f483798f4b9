"""Monte Carlo strategies for the expected homogenized tensor.

Four estimators share one sampling pipeline (draw configuration, realize the
field, solve two correctors, average the flux): plain Monte Carlo, antithetic
pairs, control variates built from defect coefficients, and selection
sampling of moment-matched configurations. Reports carry empirical means,
per-sample variances, confidence half-widths and PDE-solve counts so that
strategies can be compared at equal cost.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

# `homogenize` is not called here; it stays importable because the
# benchmark's tracer (benchmark/tracing.py) wraps `randpde.estimators.homogenize`.
from .correctors import check_voigt_reuss, homogenize, homogenize_fields  # noqa: F401
from .defects import DefectCoefficients
from .errors import (ComparabilityError, DegenerateControlWarning,
                     InvariantError, ParameterError)
from .fields import (Configuration, FieldLaw, PerturbedPeriodic,
                     antithetic_transform, realize_field, sample_configuration,
                     sqs1_exact_sample)
from .sqs import SqsAuxiliary, pair_correlation_sums, sqs_condition_values

TENSOR_ENTRIES = {"11": (0, 0), "12": (0, 1), "22": (1, 1)}
DEGENERATE_VARIANCE = 1e-14


@dataclass(frozen=True)
class EstimatorReport:
    """Summary of one estimation run; var is the per-sample variance of the
    per-sample estimator (pair averages for antithetic, corrected samples for
    control variates), so ci95 = 1.96 sqrt(var / m)."""

    strategy: str
    law: str
    n: int
    r: int
    m: int
    mean: np.ndarray
    var: np.ndarray
    ci95: np.ndarray
    solves: int
    seed: int
    rejected: int = 0
    rho: tuple = ()
    degenerate_control: bool = False

    @classmethod
    def from_samples(cls, strategy, law, n, r, samples, solves, seed,
                     rejected=0, rho=(), degenerate_control=False):
        samples = np.asarray(samples, dtype=float)
        m = samples.shape[0]
        mean = samples.mean(axis=0)
        var = samples.var(axis=0, ddof=1) if m > 1 else np.zeros((2, 2))
        ci95 = 1.96 * np.sqrt(var / m)
        return cls(strategy=strategy, law=law, n=n, r=r, m=m, mean=mean, var=var,
                   ci95=ci95, solves=solves, seed=seed, rejected=rejected,
                   rho=rho, degenerate_control=degenerate_control)


def _tensor_samples(law: FieldLaw, cfgs, r: int) -> np.ndarray:
    """Homogenized tensors of the configurations' fields, shape (m, 2, 2),
    solved in chunks by `homogenize_fields`; each is checked against its
    field's Voigt-Reuss bounds as it arrives."""
    fields = [realize_field(law, cfg) for cfg in cfgs]
    out = np.empty((len(fields), 2, 2))
    for i, (cfg, fld, (tensor, _)) in enumerate(zip(cfgs, fields, homogenize_fields(fields, r))):
        if not check_voigt_reuss(fld, tensor):
            raise InvariantError(
                f"tensor violates Voigt-Reuss bounds for configuration "
                f"(seed={cfg.seed}, index={cfg.index})")
        out[i] = tensor
    return out


def mc_estimate(law: FieldLaw, n: int, r: int, m: int, seed: int) -> EstimatorReport:
    """Plain Monte Carlo: empirical mean over m i.i.d. configurations."""
    if m < 2:
        raise ParameterError("mc_estimate needs m >= 2")
    samples = _tensor_samples(law, [sample_configuration(law, n, seed, i) for i in range(m)], r)
    return EstimatorReport.from_samples("mc", law.describe(), n, r, samples,
                                        solves=2 * m, seed=seed)


def antithetic_estimate(law: FieldLaw, n: int, r: int, m_pairs: int,
                        seed: int) -> EstimatorReport:
    """Antithetic pairs: each sample is the average over a configuration and
    its law-preserving flip, at twice the solve cost per sample."""
    if m_pairs < 2:
        raise ParameterError("antithetic_estimate needs m_pairs >= 2")
    cfgs = []
    for i in range(m_pairs):
        cfg = sample_configuration(law, n, seed, i)
        cfgs += [cfg, antithetic_transform(cfg)]
    tensors = _tensor_samples(law, cfgs, r)
    samples = 0.5 * (tensors[0::2] + tensors[1::2])
    return EstimatorReport.from_samples("antithetic", law.describe(), n, r, samples,
                                        solves=4 * m_pairs, seed=seed)


def _pair_sum_control(cfg: Configuration, defects: DefectCoefficients) -> np.ndarray:
    """Second-order control: weighted sum of pair corrections per unit volume."""
    b = cfg.draws.astype(float)
    s = pair_correlation_sums(b)
    out = np.zeros((2, 2))
    for off, d in defects.a_2def.items():
        w = defects.pair_weights[off]
        out += w * s[off[0] % cfg.n, off[1] % cfg.n] * d
    return out / cfg.n ** 2


def _expected_pair_sum(defects: DefectCoefficients, eta: float) -> np.ndarray:
    out = np.zeros((2, 2))
    for off, d in defects.a_2def.items():
        out += defects.pair_weights[off] * d
    return eta * eta * out


def control_variate_estimate(law: PerturbedPeriodic, n: int, r: int, m: int,
                             order: int, seed: int,
                             defects: DefectCoefficients) -> EstimatorReport:
    """Control variate built from defect coefficients.

    Order 1 subtracts rho * (centered one-defect surrogate); order 2 adds the
    pair-sum surrogate with its own coefficient, the pair (rho1, rho2) solving
    the 2x2 variance-minimizing normal equations per tensor entry. Both
    surrogate expectations are analytic in the Bernoulli parameter. A control
    with (numerically) zero variance falls back to rho = 0 with a warning flag.
    """
    if not isinstance(law, PerturbedPeriodic):
        raise ParameterError("control variates require the perturbed-periodic law")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")
    if order == 2 and not defects.a_2def:
        raise ParameterError("order-2 control needs defect coefficients with a pair catalog")
    if m < 2:
        raise ParameterError("control_variate_estimate needs m >= 2")

    eta = law.eta
    cfgs = [sample_configuration(law, n, seed, i) for i in range(m)]
    x = _tensor_samples(law, cfgs, r)
    y1 = np.empty((m, 2, 2))
    y2 = np.empty((m, 2, 2)) if order == 2 else None
    for i, cfg in enumerate(cfgs):
        occupancy = float(cfg.draws.sum()) / n ** 2
        y1[i] = defects.a_per_star + occupancy * defects.a_1def
        if order == 2:
            y2[i] = _pair_sum_control(cfg, defects)
    ey1 = defects.a_per_star + eta * defects.a_1def
    ey2 = _expected_pair_sum(defects, eta) if order == 2 else None

    corrected = x.copy()
    rho1 = np.zeros((2, 2))
    rho2 = np.zeros((2, 2))
    any_signal = False
    for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        xs = x[:, i, j]
        c1 = y1[:, i, j] - ey1[i, j]
        v1 = float(np.var(c1, ddof=1))
        use1 = v1 >= DEGENERATE_VARIANCE
        use2 = False
        if order == 2:
            c2 = y2[:, i, j] - ey2[i, j]
            v2 = float(np.var(c2, ddof=1))
            use2 = v2 >= DEGENERATE_VARIANCE
        any_signal = any_signal or use1 or use2
        if use1 and use2:
            # solve the normal equations on the correlation scale so that the
            # (small) pair-sum control does not look spuriously singular
            s1, s2 = np.sqrt(v1), np.sqrt(v2)
            corr = float(np.cov(c1, c2, ddof=1)[0, 1]) / (s1 * s2)
            if 1.0 - corr * corr < 1e-10:
                use2 = False
            else:
                rhs = np.array([float(np.cov(xs, c1, ddof=1)[0, 1]) / s1,
                                float(np.cov(xs, c2, ddof=1)[0, 1]) / s2])
                a1, a2 = np.linalg.solve(np.array([[1.0, corr], [corr, 1.0]]), rhs)
                rho1[i, j] = a1 / s1
                rho2[i, j] = a2 / s2
                corrected[:, i, j] = xs - rho1[i, j] * c1 - rho2[i, j] * c2
        if use1 and not use2:
            rho1[i, j] = float(np.cov(xs, c1, ddof=1)[0, 1]) / v1
            corrected[:, i, j] = xs - rho1[i, j] * c1
        elif use2 and not use1:
            rho2[i, j] = float(np.cov(xs, c2, ddof=1)[0, 1]) / v2
            corrected[:, i, j] = xs - rho2[i, j] * c2
    degenerate = not any_signal
    if degenerate:
        warnings.warn("control variate variance below threshold; using rho = 0",
                      DegenerateControlWarning, stacklevel=2)

    strategy = "cv1" if order == 1 else "cv2"
    rho = (rho1,) if order == 1 else (rho1, rho2)
    return EstimatorReport.from_samples(strategy, law.describe(), n, r, corrected,
                                        solves=2 * m, seed=seed, rho=rho,
                                        degenerate_control=degenerate)


def sqs_estimate(law: FieldLaw, n: int, r: int, m_keep: int, seed: int,
                 mode: str = "exact1", pool: int | None = None,
                 aux: SqsAuxiliary | None = None) -> EstimatorReport:
    """Selection sampling over exactly first-moment-balanced configurations.

    mode="exact1" estimates over m_keep balanced configurations. mode="ranked2"
    draws `pool` balanced configurations, ranks them by the second-moment
    residual (ties broken by index) and keeps the m_keep best before solving.
    """
    if m_keep < 2:
        raise ParameterError("sqs_estimate needs m_keep >= 2")
    p = law.bernoulli_p
    if mode == "exact1":
        cfgs = [sqs1_exact_sample(n, seed, i, p) for i in range(m_keep)]
        rejected = 0
    elif mode == "ranked2":
        if pool is None or pool < m_keep:
            raise ParameterError("ranked2 needs pool >= m_keep")
        if aux is None:
            raise ParameterError("ranked2 needs the auxiliary integrals")
        drawn = (sqs1_exact_sample(n, seed, i, p) for i in range(pool))
        order = np.argsort(sqs_condition_values(drawn, aux)[1], kind="stable")
        cfgs = [sqs1_exact_sample(n, seed, int(i), p) for i in sorted(order[:m_keep])]
        rejected = pool - m_keep
    else:
        raise ParameterError(f"unknown sqs mode {mode!r}")

    samples = _tensor_samples(law, cfgs, r)
    strategy = "sqs1" if mode == "exact1" else "sqs2"
    return EstimatorReport.from_samples(strategy, law.describe(), n, r, samples,
                                        solves=2 * m_keep, seed=seed,
                                        rejected=rejected)


@dataclass(frozen=True)
class ComparisonTable:
    """Cross-strategy factors vs the first plain-MC report in the input."""

    law: str
    n: int
    r: int
    rows: tuple

    def row(self, strategy: str, entry: str) -> dict:
        for rec in self.rows:
            if rec["strategy"] == strategy and rec["entry"] == entry:
                return rec
        raise KeyError(f"no row for ({strategy}, {entry})")


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    return num / den


def compare_strategies(reports) -> ComparisonTable:
    """Equal-cost variance-reduction factors and bias diagnostics.

    Per entry, `factor_equal_cost` normalizes per-sample variances by the
    PDE-solve cost per sample (an antithetic pair costs two realizations),
    i.e. the ratio of variances of the mean attainable at a fixed solve
    budget; `factor_realized` is the ratio of the variances of the means the
    two runs actually realized (so plain MC at doubled m shows a factor 2).
    """
    reports = list(reports)
    if not reports:
        raise ComparabilityError("no reports to compare")
    key = (reports[0].law, reports[0].n, reports[0].r)
    for rep in reports:
        if (rep.law, rep.n, rep.r) != key:
            raise ComparabilityError(
                f"report {rep.strategy} has settings {(rep.law, rep.n, rep.r)}, "
                f"expected {key}")
    baseline = next((rep for rep in reports if rep.strategy == "mc"), None)
    if baseline is None:
        raise ComparabilityError("comparison needs one plain-MC baseline report")

    rows = []
    for rep in reports:
        for name, (i, j) in TENSOR_ENTRIES.items():
            cost_mc = baseline.solves / baseline.m
            cost = rep.solves / rep.m
            equal_cost = _safe_ratio(baseline.var[i, j] * cost_mc, rep.var[i, j] * cost)
            realized = _safe_ratio(baseline.var[i, j] / baseline.m, rep.var[i, j] / rep.m)
            bias = abs(rep.mean[i, j] - baseline.mean[i, j])
            bound = rep.ci95[i, j] + baseline.ci95[i, j]
            rows.append({
                "strategy": rep.strategy, "entry": name,
                "factor_equal_cost": float(equal_cost),
                "factor_realized": float(realized),
                "bias": float(bias), "bias_bound": float(bound),
                "bias_within_bound": bool(bias <= bound or rep is baseline),
            })
    return ComparisonTable(law=key[0], n=key[1], r=key[2], rows=tuple(rows))


def write_reports_csv(reports, path) -> None:
    """One CSV row per report and tensor entry (schema: strategy, n, r, m,
    entry, mean, var, ci95, solves, rejected, rho)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "n", "r", "m", "entry", "mean", "var",
                         "ci95", "solves", "rejected", "rho"])
        for rep in reports:
            for name, (i, j) in TENSOR_ENTRIES.items():
                rho = ";".join(f"{mat[i, j]:.17g}" for mat in rep.rho)
                writer.writerow([
                    rep.strategy, rep.n, rep.r, rep.m, name,
                    f"{rep.mean[i, j]:.17g}", f"{rep.var[i, j]:.17g}",
                    f"{rep.ci95[i, j]:.17g}", rep.solves, rep.rejected, rho,
                ])

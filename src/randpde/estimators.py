"""Monte Carlo strategies for the expected homogenized tensor.

Four estimators share one sampling pipeline (draw configuration, realize the
field, solve two correctors, read the tensor off the loads): plain Monte
Carlo, antithetic pairs, control variates built from defect coefficients, and
selection sampling of moment-matched configurations. Reports carry empirical
means, per-sample variances, confidence half-widths and PDE-solve counts so
that strategies can be compared at equal cost.

Plain Monte Carlo, the control variates and the first member of every
antithetic pair draw the same i.i.d. configurations. Given one `tensors`
table, those estimators solve each configuration once between them.
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
                     GridMismatchError, InvariantError, ParameterError)
from .fields import (PerturbedPeriodic, antithetic_transform, realize_field,
                     sample_configuration, sqs1_exact_sample)
from .sqs import SqsAuxiliary, pair_form_sums, sqs_condition_values

TENSOR_ENTRIES = {"11": (0, 0), "12": (0, 1), "22": (1, 1)}
DEGENERATE_VARIANCE = 1e-14


@dataclass(frozen=True)
class EstimatorReport:
    """Summary of one estimation run; var is the per-sample variance of the
    per-sample estimator (pair averages for antithetic, corrected samples for
    control variates), so ci95 = 1.96 sqrt(var / m). `solves` is the
    strategy's nominal cost, what it costs run alone, even when a shared
    `tensors` table spared some of its solves."""

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


def _tensor_samples(law: PerturbedPeriodic, cfgs, r: int,
                    tensors: dict | None = None) -> np.ndarray:
    """Homogenized tensors of the configurations' fields, shape (m, 2, 2).

    The `tensors` table files a tensor under its configuration's identity,
    the law's phase matrices and r, never under the field's bytes: distinct
    draws that happen to coincide are solved apart, so `validate` counts the
    solves without drawing. The configurations the table does not hold are
    solved in one `homogenize_fields` call, each checked against its field's
    Voigt-Reuss bounds as it arrives and then filed. A tensor's bits do not
    depend on the chunk it is solved in, so a table changes which solves are
    made, never their results."""
    tensors = {} if tensors is None else tensors
    a0, a1 = law.phase_matrices()
    keys = [(a0.tobytes(), a1.tobytes(), r, c.n, c.p, c.seed, c.index, c.antithetic, c.balanced)
            for c in cfgs]
    new = {key: cfg for key, cfg in zip(keys, cfgs) if key not in tensors}
    fields = [realize_field(law, cfg) for cfg in new.values()]
    for (key, cfg), fld, (tensor, _) in zip(new.items(), fields, homogenize_fields(fields, r)):
        if not check_voigt_reuss(fld, tensor):
            raise InvariantError(
                f"tensor violates Voigt-Reuss bounds for configuration "
                f"(seed={cfg.seed}, index={cfg.index}, antithetic={cfg.antithetic}, "
                f"balanced={cfg.balanced})")
        tensors[key] = tensor
    return np.array([tensors[key] for key in keys])


def mc_estimate(law: PerturbedPeriodic, n: int, r: int, m: int, seed: int, *,
                tensors: dict | None = None) -> EstimatorReport:
    """Plain Monte Carlo: empirical mean over m i.i.d. configurations.

    `tensors` is a table shared with `antithetic_estimate` and
    `control_variate_estimate`: a configuration it holds is not solved again,
    and the ones solved here are added to it."""
    if m < 2:
        raise ParameterError("mc_estimate needs m >= 2")
    samples = _tensor_samples(law, [sample_configuration(law, n, seed, i) for i in range(m)], r,
                              tensors)
    return EstimatorReport.from_samples("mc", law.describe(), n, r, samples,
                                        solves=2 * m, seed=seed)


def antithetic_estimate(law: PerturbedPeriodic, n: int, r: int, m_pairs: int,
                        seed: int, *, tensors: dict | None = None) -> EstimatorReport:
    """Antithetic pairs: each sample is the average over a configuration and
    its law-preserving flip, at twice the solve cost per sample. The first
    members are mc's configurations, which a shared `tensors` table (see
    `mc_estimate`) does not solve again; the flips are this strategy's own."""
    if m_pairs < 2:
        raise ParameterError("antithetic_estimate needs m_pairs >= 2")
    cfgs = []
    for i in range(m_pairs):
        cfg = sample_configuration(law, n, seed, i)
        cfgs += [cfg, antithetic_transform(cfg)]
    x = _tensor_samples(law, cfgs, r, tensors)
    samples = 0.5 * (x[0::2] + x[1::2])
    return EstimatorReport.from_samples("antithetic", law.describe(), n, r, samples,
                                        solves=4 * m_pairs, seed=seed)


def _control_coefficients(x: np.ndarray, controls: np.ndarray) -> tuple[np.ndarray, bool]:
    """Variance-minimizing coefficients of centred controls against samples
    x of shape (m, ...), one set per trailing index; `controls` is (k, m,
    ...) with k = 1 or 2. Returns rho of shape (k, ...) and whether no
    control was kept on any entry.

    A control whose sample variance is below DEGENERATE_VARIANCE gets
    rho = 0. The kept controls solve the normal equations on the
    correlation scale, so that a small control (the pair sum) does not look
    spuriously singular; a second control nearly collinear with the first
    (1 - corr^2 < 1e-10) gets rho = 0.
    """
    xs = x.reshape(len(x), -1)
    cs = controls.reshape(len(controls), len(x), -1)
    rho = np.zeros((len(cs), xs.shape[1]))
    kept_any = False
    for e in range(xs.shape[1]):
        cov = np.cov(np.vstack([xs[:, e], cs[:, :, e]]), ddof=1)
        keep = np.flatnonzero(np.diag(cov)[1:] >= DEGENERATE_VARIANCE)
        kept_any = kept_any or keep.size > 0
        s = np.sqrt(np.diag(cov)[1:][keep])
        corr = cov[1:, 1:][np.ix_(keep, keep)] / np.outer(s, s)
        np.fill_diagonal(corr, 1.0)
        if keep.size == 2 and 1.0 - corr[0, 1] ** 2 < 1e-10:
            keep, s, corr = keep[:1], s[:1], corr[:1, :1]
        rho[keep, e] = np.linalg.solve(corr, cov[0, 1:][keep] / s) / s
    return rho.reshape(controls.shape[:1] + x.shape[1:]), not kept_any


def control_variate_estimate(defects: DefectCoefficients, m: int, order: int, seed: int, *,
                             tensors: dict | None = None) -> EstimatorReport:
    """Control variate built from defect coefficients, at the law, box size
    and resolution the catalog `defects` was solved for.

    Order 1 subtracts rho1 * (occupancy - eta) * a_1def, the centred
    one-defect surrogate; order 2 also subtracts rho2 times the centred pair
    sum 1/2 sum_{k, d} B_k B_{k+d} a_2def[d] / n^2 (the offset-indexed form
    counts each unordered pair at d and at -d, hence the 1/2), whose
    expectation is eta^2/2 sum_d a_2def[d]. The coefficients come from
    `_control_coefficients`, per tensor entry; when no control has variance
    on any entry, the report is flagged and warned about. The samples
    corrected are mc's, which a shared `tensors` table (see `mc_estimate`)
    does not solve again.
    """
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")
    if order == 2 and defects.a_2def is None:
        raise ParameterError("order-2 control needs defect coefficients with a pair catalog")
    if m < 2:
        raise ParameterError("control_variate_estimate needs m >= 2")

    law, n, r = defects.law, defects.n, defects.r
    eta = law.eta
    cfgs = [sample_configuration(law, n, seed, i) for i in range(m)]
    x = _tensor_samples(law, cfgs, r, tensors)
    draws = np.stack([cfg.draws for cfg in cfgs]).astype(float)
    occupancy = draws.sum(axis=(1, 2)) / n ** 2
    controls = [(occupancy - eta)[:, None, None] * defects.a_1def]
    if order == 2:
        controls.append(0.5 * pair_form_sums(draws, defects.a_2def)
                        - 0.5 * eta * eta * defects.a_2def.sum(axis=(0, 1)))
    controls = np.array(controls)
    rho, degenerate = _control_coefficients(x, controls)
    corrected = x - (rho[:, None] * controls).sum(axis=0)
    if degenerate:
        warnings.warn("control variate variance below threshold; using rho = 0",
                      DegenerateControlWarning, stacklevel=2)

    return EstimatorReport.from_samples(f"cv{order}", law.describe(), n, r, corrected,
                                        solves=2 * m, seed=seed, rho=tuple(rho),
                                        degenerate_control=degenerate)


def sqs_estimate(law: PerturbedPeriodic, n: int, r: int, m_keep: int, seed: int,
                 pool: int | None = None, aux: SqsAuxiliary | None = None) -> EstimatorReport:
    """Selection sampling over exactly first-moment-balanced configurations.

    Without `aux` (sqs1) it estimates over m_keep balanced configurations.
    Given the auxiliary integrals `aux` of (law, n, r) (sqs2; integrals
    solved for another law, n or r are refused before any draw), it draws `pool`
    balanced configurations, ranks them by the second-moment residual (ties
    broken by index) and keeps the m_keep best before solving. It takes no
    `tensors` table: which configurations sqs2 solves is known only after
    ranking, so a shared table would make the solve count depend on the
    draws.
    """
    if m_keep < 2:
        raise ParameterError("sqs_estimate needs m_keep >= 2")
    p = law.eta
    if aux is None:
        cfgs = [sqs1_exact_sample(n, seed, i, p) for i in range(m_keep)]
    else:
        if (aux.n, aux.r) != (n, r):
            raise GridMismatchError(
                f"auxiliary integrals solved at n={aux.n}, r={aux.r}, not n={n}, r={r}")
        if aux.law != law:
            raise ParameterError(f"auxiliary integrals solved for {aux.law.describe()}, "
                                 f"not {law.describe()}")
        if pool is None or pool < m_keep:
            raise ParameterError("sqs2 needs pool >= m_keep")
        drawn = (sqs1_exact_sample(n, seed, i, p) for i in range(pool))
        order = np.argsort(sqs_condition_values(drawn, aux)[1], kind="stable")
        cfgs = [sqs1_exact_sample(n, seed, int(i), p) for i in sorted(order[:m_keep])]

    samples = _tensor_samples(law, cfgs, r)
    return EstimatorReport.from_samples("sqs1" if aux is None else "sqs2", law.describe(),
                                        n, r, samples, solves=2 * m_keep, seed=seed,
                                        rejected=0 if aux is None else pool - m_keep)


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

"""Experiment runner: plain-text configs in, reproducible archives out.

A run archive is a directory with the fully-defaulted config snapshot, one
CSV per result family, derived SVG plots, and a manifest carrying content
hashes and the measured peak RSS; re-running an archived config reproduces
the CSVs byte for byte.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import resource
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .defects import defect_coefficients, defect_solve_count
from .errors import ConfigError, RandpdeError
from .estimators import (antithetic_estimate, compare_strategies,
                         control_variate_estimate, mc_estimate, sqs_estimate,
                         write_reports_csv)
from .fields import Checkerboard, PerturbedPeriodic, balanced_ones
from .msfem import (CoarseMesh, baseline_solve, build_cr_space, compute_errors,
                    count_local_solves, msfem_solve)
from .perforations import build_perforations
from .poisson import reference_solve, under_resolution
from .sqs import sqs_auxiliary
from .svgplot import svg_heatmap, svg_line_plot

KINDS = ("homogenize", "vr-compare", "msfem", "msfem-robustness")
STRATEGIES = ("mc", "antithetic", "cv1", "cv2", "sqs1", "sqs2")
MSFEM_METHODS = ("cr", "linear", "q1")
GEOMETRIES = ("none", "periodic_discs", "shifted_periodic_discs", "random_rectangles")

RHS_FUNCTIONS = {
    "one": lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
    "sinq": lambda x, y: np.sin(np.pi * np.asarray(x) / 2) * np.sin(np.pi * np.asarray(y) / 2),
}


def _parse_number(token: str, key: str) -> float:
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/")
            return float(num) / float(den)
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse number {token!r}") from exc


def _parse_int(token: str, key: str) -> int:
    value = _parse_number(token, key)
    if value != int(value):
        raise ConfigError(f"key {key!r}: expected integer, got {token!r}")
    return int(value)


def _parse_bool(token: str, key: str) -> bool:
    t = token.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected boolean, got {token!r}")


def _parse_matrix(raw: str, key: str) -> list:
    vals = _list_of(_parse_number)(raw, key)
    if len(vals) == 1:
        return (vals[0] * np.eye(2)).tolist()
    if len(vals) == 4:
        return np.array(vals).reshape(2, 2).tolist()
    raise ConfigError(f"key {key!r}: expected 1 or 4 numbers, got {len(vals)}")


def _parse_text(token: str, key: str) -> str:
    return token.strip()


def _one_of(options):
    def parse(token: str, key: str) -> str:
        value = token.strip()
        if value not in options:
            raise ConfigError(f"{key} must be one of {tuple(options)}, got {value!r}")
        return value
    return parse


def _list_of(conv):
    """Parser of a comma-separated list whose entries `conv` parses."""
    return lambda raw, key: [conv(tok, key) for tok in raw.split(",") if tok.strip()]


# section -> key -> (parser, default); the law's keys depend on law.kind
_SCHEMA = {
    "experiment": {"kind": (_one_of(KINDS), ""), "seed": (_parse_int, "0"),
                   "out": (_parse_text, "runs/out"), "strict": (_parse_bool, "false"),
                   "threads": (_parse_int, "1")},
    "law": {"checkerboard": {"alpha": (_parse_number, "3"), "beta": (_parse_number, "20")},
            "perturbed_periodic": {"a_per": (_parse_matrix, "3"), "c_per": (_parse_matrix, "17"),
                                   "eta": (_parse_number, "0.5")}},
    "estimate": {"n": (_list_of(_parse_int), "10"), "r": (_parse_int, "8"),
                 "m": (_parse_int, "100"), "strategies": (_list_of(_one_of(STRATEGIES)), "mc"),
                 "pool": (_parse_int, "2000")},
    "geometry": {"kind": (_one_of(GEOMETRIES), ""), "epsilon": (_parse_number, "0.1"),
                 "radius_factor": (_parse_number, "0.2"), "count": (_parse_int, "100"),
                 "width_range": (_list_of(_parse_number), "0.02,0.05"),
                 "height_range": (_list_of(_parse_number), "0.02,0.05"),
                 "gseed": (_parse_int, "0")},
    "msfem": {"h": (_list_of(_parse_number), "0.2"), "fine_n": (_list_of(_parse_int), "32"),
              "methods": (_list_of(_one_of(MSFEM_METHODS)), "cr"),
              "with_bubbles": (_parse_bool, "true"), "reference_n": (_parse_int, "0"),
              "f": (_one_of(RHS_FUNCTIONS), "one")},
}


def _keys(section: str) -> set:
    """The keys a config may set in `section`."""
    if section == "law":
        return {"kind"}.union(*_SCHEMA["law"].values())
    return set(_SCHEMA[section])


def _read(parser, section: str, table: dict) -> dict:
    """Every key of `table`, parsed from `section` or from its default."""
    given = parser[section] if section in parser else {}
    return {key: conv(given.get(key, default), f"{section}.{key}")
            for key, (conv, default) in table.items()}


@dataclass
class ExperimentConfig:
    """Validated experiment description plus the fully-defaulted snapshot."""

    kind: str
    seed: int
    out: str
    strict: bool
    law: dict = field(default_factory=dict)
    estimate: dict = field(default_factory=dict)
    geometry: dict = field(default_factory=dict)
    msfem: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        """The settings that determine the results: everything but `out`, so
        an archive does not depend on where it was written."""
        return {
            "experiment": {"kind": self.kind, "seed": self.seed, "strict": self.strict},
            "law": dict(self.law), "estimate": dict(self.estimate),
            "geometry": dict(self.geometry), "msfem": dict(self.msfem),
        }


def parse_config(path) -> ExperimentConfig:
    """Parse and statically validate the plain-text configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _keys(section):
                raise ConfigError(f"unknown key {section}.{key}")

    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = _read(parser, "experiment", _SCHEMA["experiment"])
    # `threads = 1` stays valid so configs that set it still parse
    if exp.pop("threads") != 1:
        raise ConfigError("experiment.threads must be 1: runs are single-threaded")
    cfg = ExperimentConfig(**exp)

    if cfg.kind in ("homogenize", "vr-compare"):
        if "law" not in parser:
            raise ConfigError(f"{cfg.kind} needs a [law] section")
        lkind = _one_of(_SCHEMA["law"])(parser["law"].get("kind", ""), "law.kind")
        for key in parser["law"]:
            if key != "kind" and key not in _SCHEMA["law"][lkind]:
                raise ConfigError(f"key law.{key} does not apply to law.kind = {lkind}")
        cfg.law = {"kind": lkind, **_read(parser, "law", _SCHEMA["law"][lkind])}
        est = cfg.estimate = _read(parser, "estimate", _SCHEMA["estimate"])
        if cfg.kind == "homogenize" and est["strategies"] != ["mc"]:
            raise ConfigError(f"estimate.strategies must be mc for kind = homogenize, "
                              f"got {', '.join(est['strategies'])}")
        if cfg.kind == "vr-compare" and "mc" not in est["strategies"]:
            raise ConfigError("vr-compare needs the mc baseline in estimate.strategies")
        if any(n < 1 for n in est["n"]):
            raise ConfigError("estimate.n entries must be >= 1")
        if est["r"] < 1:
            raise ConfigError("estimate.r must be >= 1")
        if est["m"] < 2:
            raise ConfigError("estimate.m must be >= 2: a variance needs two samples")
        if {"cv1", "cv2"} & set(est["strategies"]):
            if lkind != "perturbed_periodic":
                raise ConfigError("estimate.strategies: cv1 and cv2 need "
                                  "law.kind = perturbed_periodic")
            if any(n < 2 for n in est["n"]):
                raise ConfigError("estimate.n entries must be >= 2 for cv1 and cv2")
        if "sqs2" in est["strategies"] and est["pool"] < est["m"]:
            raise ConfigError("estimate.pool must be >= estimate.m for sqs2")
    else:
        if "geometry" not in parser:
            raise ConfigError(f"{cfg.kind} needs a [geometry] section")
        cfg.geometry = _read(parser, "geometry", _SCHEMA["geometry"])
        if cfg.kind == "msfem-robustness" and not cfg.geometry["kind"].endswith("_discs"):
            raise ConfigError("msfem-robustness is defined for periodic disc geometries")
        ms = cfg.msfem = _read(parser, "msfem", _SCHEMA["msfem"])
        if len(ms["fine_n"]) == 1:
            ms["fine_n"] = ms["fine_n"] * len(ms["h"])
        if len(ms["fine_n"]) != len(ms["h"]):
            raise ConfigError("msfem.fine_n must be scalar or match msfem.h in length")
        for hval in ms["h"]:
            m = 1.0 / hval if hval > 0 else 0.0
            if abs(m - round(m)) > 1e-9 or round(m) < 2:
                raise ConfigError(f"msfem.h entry {hval} must equal 1/m for integer m >= 2")
        if ms["reference_n"] == 0:
            ms["reference_n"] = _msfem_grids(cfg)[1]
    return cfg


def _build_law(cfg: ExperimentConfig):
    if cfg.law["kind"] == "checkerboard":
        return Checkerboard(cfg.law["alpha"], cfg.law["beta"])
    return PerturbedPeriodic(a_per=np.array(cfg.law["a_per"]),
                             c_per=np.array(cfg.law["c_per"]), eta=cfg.law["eta"])


def _geometries(cfg: ExperimentConfig) -> list:
    """(geometry id, perforations) of every geometry an MsFEM run solves on:
    both disc lattices for msfem-robustness, the configured one otherwise."""
    g = cfg.geometry
    if cfg.kind == "msfem-robustness":
        return [(geo_id, build_perforations(kind, epsilon=g["epsilon"],
                                            radius_factor=g["radius_factor"]))
                for geo_id, kind in (("test1_unshifted", "periodic_discs"),
                                     ("test2_shifted", "shifted_periodic_discs"))]
    perf = build_perforations(g["kind"], epsilon=g["epsilon"],
                              radius_factor=g["radius_factor"], count=g["count"],
                              width_range=tuple(g["width_range"]),
                              height_range=tuple(g["height_range"]), seed=g["gseed"])
    return [(perf.describe(), perf)]


def _msfem_grids(cfg: ExperimentConfig):
    """(m, fine_n) pairs plus the reference resolution (validated divisible).

    The default reference is the coarsest grid that contains every level's
    local grids (the least common multiple of the m * fine_n values): a finer
    one would add the local grids' own resolution gap to the errors.
    """
    pairs = [(int(round(1.0 / h)), fn) for h, fn in zip(cfg.msfem["h"], cfg.msfem["fine_n"])]
    ref_n = cfg.msfem["reference_n"]
    if ref_n == 0:
        ref_n = math.lcm(*(m * fn for m, fn in pairs))
    for m, fn in pairs:
        if ref_n % (m * fn) != 0:
            raise ConfigError(
                f"msfem.reference_n={ref_n} is not divisible by m*fine_n={m * fn} "
                f"(H=1/{m}); choose a compatible reference resolution")
    return pairs, ref_n


def validate(cfg: ExperimentConfig) -> dict:
    """Static validation and cost estimate; never solves anything.

    ``estimated_pde_solves`` is exact. For the estimator kinds it counts the
    online solves of every strategy plus, once per box size, the defect solves
    shared by cv1 and cv2 and the 4 selection solves of sqs2. For the MsFEM
    kinds it counts one reference solve per geometry plus the local solves of
    every (geometry, level, method), taken from the same local problems the
    space builder solves, on the geometry classified the same way. An SQS
    strategy on a box where p*n^2 is not an integer is a problem. A level
    whose local grids put fewer than 4 cells across the smallest perforation
    is a note, or a problem under `strict`; this covers the reference too,
    whose N is a multiple of every level's m*fine_n.
    """
    problems: list[str] = []
    notes: list[str] = []
    solves = 0
    try:
        if cfg.kind in ("homogenize", "vr-compare"):
            law = _build_law(cfg)
            est = cfg.estimate
            strategies = est["strategies"]
            for n in est["n"]:
                # two correctors per sample; an antithetic sample is a pair
                solves += sum(4 if s == "antithetic" else 2 for s in strategies) * est["m"]
                if "cv1" in strategies or "cv2" in strategies:
                    solves += defect_solve_count(law, n, 2 if "cv2" in strategies else 1)
                if "sqs2" in strategies:
                    solves += 4  # two directions on the working and the enlarged box
                if "sqs1" in strategies or "sqs2" in strategies:
                    balanced_ones(n, law.bernoulli_p)  # raises when SQS cannot sample
        else:
            geometries = _geometries(cfg)
            pairs, _ = _msfem_grids(cfg)
            for _, perf in geometries:
                solves += 1  # the reference solve
                for m, fn in pairs:
                    note = under_resolution(perf, m * fn)
                    if note:
                        (problems if cfg.strict else notes).append(note)
                    solves += sum(count_local_solves(CoarseMesh(m), perf, fn, method,
                                                     cfg.msfem["with_bubbles"])
                                  for method in cfg.msfem["methods"])
    except RandpdeError as exc:
        problems.append(str(exc))
    return {"problems": problems, "notes": notes, "estimated_pde_solves": solves}


@dataclass
class RunArchive:
    out_dir: Path
    manifest: dict

    @property
    def status(self) -> str:
        return self.manifest.get("status", "unknown")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    """Rows as CSV, floats written with 17 significant digits (round-trip exact)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v)
                             for k, v in row.items()})


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _run_estimators(cfg: ExperimentConfig, out: Path) -> list[str]:
    """Estimates of every (box size, strategy) into reports.csv, their
    comparison and mean_ci.svg; returns the run's warnings."""
    law = _build_law(cfg)
    est = cfg.estimate
    warnings_log: list[str] = []
    reports = []

    def offline(n):
        """Defect catalog and selection integrals shared by the strategies."""
        extras = {}
        if "cv1" in est["strategies"] or "cv2" in est["strategies"]:
            order = 2 if "cv2" in est["strategies"] else 1
            extras["defects"] = defect_coefficients(law, n=n, r=est["r"], order=order)
        if "sqs2" in est["strategies"]:
            a0, a1 = law.phase_matrices()
            c0 = a0 + law.bernoulli_p * (a1 - a0)
            extras["aux"] = sqs_auxiliary(c0, a1 - a0, n=n, r=est["r"])
        return extras

    def run_one(n, strategy, extras):
        if strategy == "mc":
            return mc_estimate(law, n, est["r"], est["m"], cfg.seed)
        if strategy == "antithetic":
            return antithetic_estimate(law, n, est["r"], est["m"], cfg.seed)
        if strategy in ("cv1", "cv2"):
            order = 1 if strategy == "cv1" else 2
            rep = control_variate_estimate(law, n, est["r"], est["m"], order,
                                           cfg.seed, extras["defects"])
            if rep.degenerate_control:
                warnings_log.append(f"degenerate control variate at n={n} ({strategy})")
            return rep
        if strategy == "sqs1":
            return sqs_estimate(law, n, est["r"], est["m"], cfg.seed, mode="exact1")
        return sqs_estimate(law, n, est["r"], est["m"], cfg.seed, mode="ranked2",
                            pool=est["pool"], aux=extras["aux"])

    for n in est["n"]:
        extras = offline(n)
        for s in est["strategies"]:
            # rewritten after every strategy, so a later failure leaves the
            # finished strategies' rows in the archive
            reports.append(run_one(n, s, extras))
            write_reports_csv(reports, out / "reports.csv")
    if len(est["strategies"]) > 1:
        rows = [{"n": n, **rec} for n in est["n"]
                for rec in compare_strategies([r for r in reports if r.n == n]).rows]
        _write_csv(out / "comparison.csv", ["n", "strategy", "entry", "factor_equal_cost",
                                            "factor_realized", "bias", "bias_bound",
                                            "bias_within_bound"], rows)
    _plot_mean_ci(out)
    return warnings_log


def _plot_mean_ci(out: Path) -> None:
    """mean_ci.svg from reports.csv: entry 11 and its 95% band against n, one
    series per strategy in the order of the CSV."""
    rows = [r for r in _read_csv(out / "reports.csv") if r["entry"] == "11"]
    series = []
    for s in dict.fromkeys(r["strategy"] for r in rows):
        grp = sorted((r for r in rows if r["strategy"] == s), key=lambda r: int(r["n"]))
        series.append({"label": s, "x": [int(r["n"]) for r in grp],
                       "y": [float(r["mean"]) for r in grp],
                       "ci": [float(r["ci95"]) for r in grp]})
    svg_line_plot(series, out / "mean_ci.svg", title="Estimated tensor entry 11 vs box size",
                  xlabel="box size n", ylabel="estimate with 95% band")


MSFEM_CSV_COLUMNS = ["method", "H", "geometry", "with_bubbles", "l2_rel", "h1_rel",
                     "dof", "solves"]


def _solve_msfem_case(mesh, perf, f, method, with_bubbles, fine_n):
    if method == "cr":
        space = build_cr_space(mesh, perf, fine_n, with_bubbles=with_bubbles)
        return msfem_solve(space, f)
    name = {"linear": "msfem_linear", "q1": "coarse_q1"}[method]
    return baseline_solve(mesh, perf, f, name, with_bubbles=with_bubbles, fine_n=fine_n)


def _plot_heatmaps(u, method: str, perf, out: Path) -> None:
    """The stitched coarse solution and the perforation indicator."""
    fn = u.fine_n
    stitched = np.zeros((u.m * fn + 1, u.m * fn + 1))
    for i in range(u.m):
        for j in range(u.m):
            stitched[i * fn:(i + 1) * fn + 1, j * fn:(j + 1) * fn + 1] = u.recon[i, j]
    svg_heatmap(stitched, out / "heatmap_solution.svg", title=f"coarse solution ({method})")
    probe = np.linspace(0, 1, 257)
    svg_heatmap(perf.indicator(probe[:, None], probe[None, :]).astype(float),
                out / "heatmap_perforations.svg", title="perforation indicator")


def _run_msfem(cfg: ExperimentConfig, out: Path) -> None:
    """Errors of every (geometry, level, method) against the geometry's
    reference into msfem.csv, their plots, and heatmaps of the first case."""
    ms = cfg.msfem
    f = RHS_FUNCTIONS[ms["f"]]
    pairs, ref_n = _msfem_grids(cfg)
    rows: list[dict] = []
    for geo_id, perf in _geometries(cfg):
        ref = reference_solve(perf, f, ref_n)
        for m, fn in pairs:
            for method in ms["methods"]:
                u = _solve_msfem_case(CoarseMesh(m), perf, f, method,
                                      ms["with_bubbles"], fn)
                l2, h1 = compute_errors(u, ref)
                rows.append({"method": method, "H": 1.0 / m, "geometry": geo_id,
                             "with_bubbles": ms["with_bubbles"], "l2_rel": l2,
                             "h1_rel": h1, "dof": u.dof, "solves": u.solves})
                if len(rows) == 1:
                    _plot_heatmaps(u, method, perf, out)
    _write_csv(out / "msfem.csv", MSFEM_CSV_COLUMNS, rows)
    _plot_msfem(out)


def _plot_msfem(out: Path) -> None:
    """errors_l2.svg and errors_h1.svg from msfem.csv: each error against H,
    one series per (method, geometry)."""
    rows = _read_csv(out / "msfem.csv")
    keys = sorted({(r["method"], r["geometry"]) for r in rows})
    one_geometry = len({geo for _, geo in keys}) == 1
    for norm, fname in (("l2_rel", "errors_l2.svg"), ("h1_rel", "errors_h1.svg")):
        series = []
        for method, geo in keys:
            group = sorted((r for r in rows if (r["method"], r["geometry"]) == (method, geo)),
                           key=lambda r: float(r["H"]))
            series.append({"label": method if one_geometry else f"{method}:{geo}",
                           "x": [float(r["H"]) for r in group],
                           "y": [float(r[norm]) for r in group]})
        svg_line_plot(series, out / fname, title=f"relative {norm.split('_')[0]} error vs H",
                      xlabel="H", ylabel="relative error", logx=True)


def run(cfg: ExperimentConfig, out_override=None, seed_override=None) -> RunArchive:
    """Execute the experiment and write the archive; on solver failure the
    partial results are flushed and flagged in the manifest (``reports.csv``
    holds every strategy finished before the failure). A config that
    `validate` rejects raises ConfigError before anything is written."""
    if seed_override is not None:
        cfg.seed = seed_override
    diag = validate(cfg)
    if diag["problems"]:
        raise ConfigError("; ".join(diag["problems"]))
    out = Path(out_override if out_override is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {"config": cfg.snapshot(), "seed": cfg.seed, "version": __version__,
                "status": "ok", "warnings": list(diag["notes"]), "files": {},
                "estimated_pde_solves": diag["estimated_pde_solves"]}
    try:
        if cfg.kind in ("homogenize", "vr-compare"):
            manifest["warnings"].extend(_run_estimators(cfg, out))
        else:
            _run_msfem(cfg, out)
    except RandpdeError as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["traceback"] = traceback.format_exc().splitlines()[-3:]

    with open(out / "config_snapshot.json", "w") as fh:
        json.dump(cfg.snapshot(), fh, indent=2, sort_keys=True)
    for p in sorted(out.iterdir()):
        if p.name != "manifest.json" and p.is_file():
            manifest["files"][p.name] = _sha256(p)
    # measured, so it lives only in the manifest, outside its own hash list
    manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return RunArchive(out_dir=out, manifest=manifest)


def replot(archive_dir) -> list[str]:
    """Regenerate the SVG plots of an archive from its CSVs."""
    out = Path(archive_dir)
    made = []
    if (out / "reports.csv").exists():
        _plot_mean_ci(out)
        made.append("mean_ci.svg")
    if (out / "msfem.csv").exists():
        _plot_msfem(out)
        made.extend(["errors_l2.svg", "errors_h1.svg"])
    if not made:
        raise ConfigError(f"no CSVs found to plot in {archive_dir}")
    return made

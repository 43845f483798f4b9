import configparser
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from randpde import correctors, estimators, experiments
from randpde.cli import main as cli_main
from randpde.defects import defect_coefficients
from randpde.errors import AssemblyError, ConfigError, ResolutionWarning, SolverError
from randpde.experiments import parse_config, replot, run, validate
from randpde.fields import PerturbedPeriodic

VR_CONFIG = """
[experiment]
kind = vr-compare
seed = 11
out = {out}

[law]
kind = checkerboard
alpha = 3.0
beta = 20.0

[estimate]
n = 3, 4
r = 2
m = 6
strategies = mc, antithetic
"""

MSFEM_CONFIG = """
[experiment]
kind = msfem
seed = 0
out = {out}

[geometry]
kind = none

[msfem]
h = 1/4
fine_n = 8
methods = cr
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "archive"))
    return path


def test_parse_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, VR_CONFIG + "\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="whatever"):
        parse_config(path)


def test_parse_rejects_removed_keys(tmp_path):
    # the corrector solver (CG at 1e-9) and the penalty (kappa = 1e8/h^2)
    # are fixed, so configs cannot set them
    for text, key in ((VR_CONFIG + "solver = cg\n", "estimate.solver"),
                      (MSFEM_CONFIG + "kappa = 1e8\n", "msfem.kappa")):
        with pytest.raises(ConfigError, match=f"unknown key {key}"):
            parse_config(write_config(tmp_path, text))


def test_parse_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, VR_CONFIG + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(path)


def test_parse_rejects_bad_eta(tmp_path):
    bad = VR_CONFIG.replace("kind = checkerboard",
                            "kind = perturbed_periodic\neta = 1.5")
    bad = bad.replace("alpha = 3.0\nbeta = 20.0", "a_per = 3\nc_per = 17")
    path = write_config(tmp_path, bad)
    cfg = parse_config(path)
    diag = validate(cfg)
    assert any("eta" in p for p in diag["problems"])


def test_validate_reports_costs(tmp_path):
    cfg = parse_config(write_config(tmp_path, VR_CONFIG))
    diag = validate(cfg)
    assert diag["problems"] == []
    # per n, 2*6 solves for mc's draws and 2*6 for the antithetic flips:
    # the pairs' first members are mc's draws, which the run solves once
    assert diag["estimated_pde_solves"] == 2 * (12 + 12)


CV_CONFIG = """
[experiment]
kind = vr-compare
seed = 5
out = {out}

[law]
kind = perturbed_periodic
a_per = 3
c_per = 17
eta = 0.5

[estimate]
n = 4, 6
r = 2
m = 3
strategies = mc, antithetic, cv1, cv2, sqs2
pool = 10
"""


def test_validate_estimate_matches_solves_made(tmp_path, monkeypatch):
    # counts the corrector rows the run solves, not reports.csv's nominal
    # `solves`: per box size mc, antithetic, cv1 and cv2 share their tensors
    rows, aux = [], []
    solve_stack, sqs_auxiliary = correctors._solve_stack, experiments.sqs_auxiliary

    def counted_stack(cells, *args):
        rows.append(2 * len(cells))  # the correctors in e_1 and e_2
        return solve_stack(cells, *args)

    def counted_aux(*args, **kwargs):
        result = sqs_auxiliary(*args, **kwargs)
        aux.append(result.solves)  # FFT solves, not corrector PCGs
        return result

    monkeypatch.setattr(correctors, "_solve_stack", counted_stack)
    monkeypatch.setattr(experiments, "sqs_auxiliary", counted_aux)
    cfg = parse_config(write_config(tmp_path, CV_CONFIG))
    archive = run(cfg, out_override=tmp_path / "cv")
    assert archive.status == "ok"
    reports = csv.DictReader((tmp_path / "cv" / "reports.csv").read_text().splitlines())
    assert len({(r["strategy"], r["n"]) for r in reports}) == 10 and len(aux) == 2
    assert archive.manifest["estimated_pde_solves"] == sum(rows) + sum(aux)


def test_shared_tensors_keep_the_reports_bytes(tmp_path, monkeypatch):
    # the run's mc, antithetic, cv1 and cv2 share one table per box size;
    # their reports are those of the estimators run alone, with no table
    tables = []
    mc_estimate = experiments.mc_estimate

    def recorded(*args, tensors):
        tables.append(tensors)
        return mc_estimate(*args, tensors=tensors)

    monkeypatch.setattr(experiments, "mc_estimate", recorded)
    text = CV_CONFIG.replace("n = 4, 6", "n = 4").replace("cv2, sqs2", "cv2")
    archive = run(parse_config(write_config(tmp_path, text)), out_override=tmp_path / "run")
    assert archive.status == "ok"

    law = PerturbedPeriodic(a_per=3 * np.eye(2), c_per=17 * np.eye(2), eta=0.5)
    defects = defect_coefficients(law, n=4, r=2, order=2)
    alone = [estimators.mc_estimate(law, 4, 2, 3, 5),
             estimators.antithetic_estimate(law, 4, 2, 3, 5),
             estimators.control_variate_estimate(defects, 3, 1, 5),
             estimators.control_variate_estimate(defects, 3, 2, 5)]
    experiments._write_csv(tmp_path / "alone.csv", experiments.REPORTS_CSV_COLUMNS,
                           experiments._report_rows(alone))
    assert (tmp_path / "run" / "reports.csv").read_bytes() == \
        (tmp_path / "alone.csv").read_bytes()
    [table] = tables
    assert len(table) == 2 * 3  # mc's draws and the antithetic flips

    # a table filled for another r or another law is never read: with
    # every entry poisoned, the estimate is still the one made alone
    poisoned = dict.fromkeys(table, np.full((2, 2), np.nan))
    for other, r in ((law, 4), (PerturbedPeriodic(3 * np.eye(2), 16 * np.eye(2), 0.5), 2),
                     (PerturbedPeriodic(3 * np.eye(2), 17 * np.eye(2), 0.4), 2)):
        shared = dict(poisoned)
        rep = estimators.mc_estimate(other, 4, r, 3, 5, tensors=shared)
        assert len(shared) == len(poisoned) + 3
        assert np.array_equal(rep.mean, estimators.mc_estimate(other, 4, r, 3, 5).mean)


@pytest.mark.parametrize("strategy", ["sqs1", "sqs2"])
def test_validate_rejects_unsampleable_sqs_box(tmp_path, monkeypatch, strategy):
    # p = 1/2 on n = 3 needs 4.5 ones: no balanced configuration exists
    def never(*args, **kwargs):
        raise AssertionError("run solved before rejecting the config")

    monkeypatch.setattr(experiments, "mc_estimate", never)
    text = VR_CONFIG.replace("strategies = mc, antithetic", f"strategies = mc, {strategy}")
    cfg = parse_config(write_config(tmp_path, text))
    assert any("n=3" in p and "not an integer" in p for p in validate(cfg)["problems"])
    with pytest.raises(ConfigError, match="not an integer"):
        run(cfg, out_override=tmp_path / "sqs")
    assert not (tmp_path / "sqs" / "reports.csv").exists()
    feasible = parse_config(write_config(tmp_path, text.replace("n = 3, 4", "n = 4")))
    assert validate(feasible)["problems"] == []


def test_validate_flags_underresolved_msfem(tmp_path):
    text = MSFEM_CONFIG.replace("kind = none",
                                "kind = periodic_discs\nepsilon = 0.03\nradius_factor = 0.35")
    cfg = parse_config(write_config(tmp_path, text))
    diag = validate(cfg)
    assert any("under-resolves" in note for note in diag["notes"])
    cfg.strict = True
    diag_strict = validate(cfg)
    assert any("under-resolves" in p for p in diag_strict["problems"])


UNDERRESOLVED_CONFIG = MSFEM_CONFIG.replace(
    "kind = none", "kind = periodic_discs\nepsilon = 0.03\nradius_factor = 0.35")


def test_strict_is_the_runners_decision(tmp_path, monkeypatch):
    # under strict, `run` refuses an under-resolved config before any solve;
    # without, the note lands in the manifest and the solvers warn with it
    cfg = parse_config(write_config(tmp_path, UNDERRESOLVED_CONFIG))
    (note,) = validate(cfg)["notes"]
    assert "under-resolves" in note

    def never(*args, **kwargs):
        raise AssertionError("run solved before refusing the config")

    strict_text = UNDERRESOLVED_CONFIG.replace("seed = 0", "seed = 0\nstrict = true")
    strict_path = write_config(tmp_path, strict_text, name="strict.ini")
    with monkeypatch.context() as patched:
        for name in ("reference_solve", "build_cr_space", "baseline_solve"):
            patched.setattr(experiments, name, never)
        with pytest.raises(ConfigError, match="under-resolves"):
            run(parse_config(strict_path), out_override=tmp_path / "strict")
        cli_path = str(write_config(tmp_path, UNDERRESOLVED_CONFIG, name="cli.ini"))
        assert cli_main(["run", "--config", cli_path, "--strict",
                         "--out", str(tmp_path / "cli")]) == 2
    assert not (tmp_path / "strict").exists() and not (tmp_path / "cli").exists()

    with pytest.warns(ResolutionWarning) as record:
        archive = run(cfg, out_override=tmp_path / "lenient")
    assert archive.status == "ok"
    assert archive.manifest["warnings"] == [note]
    messages = [str(w.message) for w in record if issubclass(w.category, ResolutionWarning)]
    assert messages == [note, note]  # the reference and the local grids


@pytest.mark.parametrize("text, key", [
    (VR_CONFIG.replace("m = 6", "m = 1"), "estimate.m"),
    (VR_CONFIG.replace("r = 2", "r = 0"), "estimate.r"),
    (VR_CONFIG.replace("mc, antithetic", "mc, sqs2\npool = 5"), "estimate.pool"),
    (CV_CONFIG.replace("n = 4, 6", "n = 1, 4"), "estimate.n"),
    (VR_CONFIG.replace("beta = 20.0", "beta = 20.0\neta = 0.9"), "law.eta"),
    (CV_CONFIG.replace("eta = 0.5", "eta = 0.5\nalpha = 2"), "law.alpha"),
    (VR_CONFIG.replace("kind = vr-compare", "kind = homogenize"), "experiment.kind"),
    (VR_CONFIG.replace("seed = 11", "seed = nan"), "experiment.seed"),
    (VR_CONFIG.replace("r = 2", "r = -inf"), "estimate.r"),
    (MSFEM_CONFIG.replace("fine_n = 8", "fine_n = 0"), "msfem.fine_n"),
    (MSFEM_CONFIG.replace("fine_n = 8", "fine_n = -4"), "msfem.fine_n"),
    (MSFEM_CONFIG.replace("fine_n = 8", "fine_n = 1"), "msfem.fine_n"),
    (UNDERRESOLVED_CONFIG.replace("fine_n = 8", "fine_n = 1"), "msfem.fine_n"),
    (MSFEM_CONFIG + "reference_n = -32\n", "msfem.reference_n"),
    (VR_CONFIG.replace("n = 3, 4", "n ="), "estimate.n"),
    (MSFEM_CONFIG.replace("h = 1/4", "h ="), "msfem.h"),
    (VR_CONFIG.replace("mc, antithetic", "mc, antithetic, mc"), "estimate.strategies"),
    (MSFEM_CONFIG.replace("methods = cr", "methods = cr, cr"), "msfem.methods"),
    (VR_CONFIG.replace("n = 3, 4", "n = 3, 4, 3"), "estimate.n"),
    (MSFEM_CONFIG.replace("h = 1/4", "h = 1/4, 0.25"), "msfem.h, msfem.fine_n"),
], ids=["m-1", "r-0", "sqs2-pool-below-m", "cv-n-1",
        "checkerboard-eta", "perturbed-alpha", "kind-homogenize",
        "seed-nan", "r-minus-inf", "fine_n-0", "fine_n-minus-4", "fine_n-1-none",
        "fine_n-1-discs", "reference_n-minus-32", "n-empty", "h-empty",
        "strategies-repeated", "methods-repeated", "n-repeated", "level-repeated"])
def test_configs_that_run_cannot_solve_fail_validation(tmp_path, text, key):
    # each of these once went wrong after parsing:
    # - up to sqs2-pool-below-m, and cv-n-1, fine_n-1-*, reference_n-minus-32
    #   and h-empty passed `validate`, then failed in `run` as a solver error;
    # - checkerboard-eta and perturbed-alpha ran something else than the
    #   config states: a key of the other law kind was dropped;
    # - kind-homogenize names a kind that is gone: vr-compare with
    #   strategies = mc runs that experiment;
    # - seed-nan, r-minus-inf and fine_n-0 or -4 left `validate` with a
    #   traceback, and n-empty passed it and left `run` with one;
    # - strategies-repeated, methods-repeated, n-repeated and level-repeated
    #   ran and wrote the repeated entry's rows twice
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=key):
        parse_config(path)
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert cli_main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "archive").exists()


def test_fraction_values_accepted(tmp_path):
    cfg = parse_config(write_config(tmp_path, MSFEM_CONFIG))
    assert cfg.msfem["h"] == [0.25]


def test_run_vr_archive_and_determinism(tmp_path):
    cfg = parse_config(write_config(tmp_path, VR_CONFIG))
    first = run(cfg, out_override=tmp_path / "a1")
    assert first.status == "ok"
    reports = (tmp_path / "a1" / "reports.csv").read_text().splitlines()
    assert reports[0] == "strategy,n,r,m,entry,mean,var,ci95,solves,rejected,rho"
    assert len(reports) == 1 + 2 * 2 * 3  # 2 strategies x 2 sizes x 3 entries
    assert (tmp_path / "a1" / "comparison.csv").exists()
    assert (tmp_path / "a1" / "mean_ci.svg").exists()

    cfg2 = parse_config(write_config(tmp_path, VR_CONFIG))
    second = run(cfg2, out_override=tmp_path / "a2")
    assert first.manifest["files"] == second.manifest["files"]


def test_checkerboard_archive_equals_its_defect_form(tmp_path):
    # the checkerboard is the perturbed-periodic law at eta = 1/2, so every
    # strategy, cv1 and cv2 included, runs on it and writes the bytes of
    # its defect form
    all_six = VR_CONFIG.replace("n = 3, 4", "n = 4").replace(
        "mc, antithetic", "mc, antithetic, cv1, cv2, sqs1, sqs2\npool = 10")
    defect_form = all_six.replace("kind = checkerboard\nalpha = 3.0\nbeta = 20.0",
                                  "kind = perturbed_periodic\na_per = 3\nc_per = 17\neta = 0.5")
    assert defect_form != all_six
    for name, text in (("cb", all_six), ("pp", defect_form)):
        cfg = parse_config(write_config(tmp_path, text, name=f"{name}.ini"))
        assert validate(cfg)["problems"] == []
        assert run(cfg, out_override=tmp_path / name).status == "ok"
    for name in ("reports.csv", "comparison.csv", "mean_ci.svg"):
        assert (tmp_path / "cb" / name).read_bytes() == (tmp_path / "pp" / name).read_bytes()
    assert len((tmp_path / "cb" / "reports.csv").read_text().splitlines()) == 1 + 6 * 3


def test_run_msfem_archive(tmp_path):
    cfg = parse_config(write_config(tmp_path, MSFEM_CONFIG))
    archive = run(cfg, out_override=tmp_path / "ms")
    assert archive.status == "ok"
    rows = (tmp_path / "ms" / "msfem.csv").read_text().splitlines()
    assert rows[0] == ("method,H,geometry,with_bubbles,l2_rel,h1_rel,dof,solves,"
                       "fine_n,reference_n")
    assert len(rows) == 2
    l2 = float(rows[1].split(",")[4])
    assert np.isfinite(l2) and l2 < 1.0
    for name in ("errors_l2.svg", "errors_h1.svg", "heatmap_solution.svg",
                 "heatmap_perforations.svg", "manifest.json", "config_snapshot.json"):
        assert (tmp_path / "ms" / name).exists()


def test_msfem_rows_of_one_h_differ_in_fine_n(tmp_path):
    # two levels with one H and different local grids once wrote two rows
    # with the same (method, H, geometry, with_bubbles) key; each row is
    # read against the reference on its own grid
    text = MSFEM_CONFIG.replace("h = 1/4\nfine_n = 8", "h = 1/4, 1/4\nfine_n = 8, 16")
    archive = run(parse_config(write_config(tmp_path, text)), out_override=tmp_path / "ms")
    assert archive.status == "ok"
    rows = list(csv.DictReader((tmp_path / "ms" / "msfem.csv").read_text().splitlines()))
    assert [(r["H"], r["fine_n"], r["reference_n"]) for r in rows] \
        == [("0.25", "8", "32"), ("0.25", "16", "64")]


def test_manifest_lists_hashes_and_snapshot(tmp_path):
    cfg = parse_config(write_config(tmp_path, MSFEM_CONFIG))
    archive = run(cfg, out_override=tmp_path / "ms")
    manifest = json.loads((tmp_path / "ms" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "msfem.csv" in manifest["files"]
    assert all(len(h) == 64 for h in manifest["files"].values())
    assert manifest["config"]["msfem"]["f"] == "one"  # defaults materialized
    # the measured peak is in the manifest only, never in the hashed files
    assert manifest["peak_rss_mb"] > 0
    assert archive.manifest["peak_rss_mb"] == manifest["peak_rss_mb"]
    assert "peak_rss_mb" not in (tmp_path / "ms" / "config_snapshot.json").read_text()


def test_archive_does_not_depend_on_its_directory(tmp_path):
    # one config written into two directories gives the same archive files
    archives = []
    for name in ("first", "second/nested"):
        text = MSFEM_CONFIG.replace("out = {out}", f"out = {tmp_path / name}")
        archives.append(run(parse_config(write_config(tmp_path, text))))
    assert [a.out_dir for a in archives] == [tmp_path / "first", tmp_path / "second/nested"]
    assert archives[0].manifest["files"] == archives[1].manifest["files"]
    assert "config_snapshot.json" in archives[0].manifest["files"]
    snapshot = json.loads((tmp_path / "first" / "config_snapshot.json").read_text())
    assert "out" not in snapshot["experiment"]


def test_default_reference_matches_local_grids(tmp_path, monkeypatch):
    # m * fine_n = 32 and 24: each level is read against the reference on
    # its own grid, so a level's row does not depend on the other levels
    reference_solve = experiments.reference_solve
    grids = []

    def counted(perf, f, n):
        grids.append(n)
        return reference_solve(perf, f, n)

    monkeypatch.setattr(experiments, "reference_solve", counted)
    text = MSFEM_CONFIG.replace("h = 1/4\nfine_n = 8", "h = 1/4, 1/3\nfine_n = 8")
    cfg = parse_config(write_config(tmp_path, text))
    both = run(cfg, out_override=tmp_path / "both")
    assert both.status == "ok" and grids == [32, 24]
    rows = list(csv.DictReader((tmp_path / "both" / "msfem.csv").read_text().splitlines()))
    made = sum(int(r["solves"]) for r in rows) + len(grids)
    assert both.manifest["estimated_pde_solves"] == made
    assert [r["reference_n"] for r in rows] == ["32", "24"]
    # the snapshot keeps the key as written: absent is 0
    snapshot = json.loads((tmp_path / "both" / "config_snapshot.json").read_text())
    assert snapshot["msfem"]["reference_n"] == 0

    alone = run(parse_config(write_config(tmp_path, MSFEM_CONFIG)), out_override=tmp_path / "one")
    assert alone.status == "ok" and grids == [32, 24, 32]
    [row] = csv.DictReader((tmp_path / "one" / "msfem.csv").read_text().splitlines())
    assert (row["l2_rel"], row["h1_rel"]) == (rows[0]["l2_rel"], rows[0]["h1_rel"])


def test_partial_results_flushed_on_solver_error(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise SolverError("injected failure", iterations=7, residual=1.0)

    monkeypatch.setattr(experiments, "antithetic_estimate", failing)
    cfg = parse_config(write_config(tmp_path, VR_CONFIG))
    archive = run(cfg, out_override=tmp_path / "partial")
    assert archive.status == "error"
    assert "injected failure" in archive.manifest["error"]
    rows = list(csv.DictReader((tmp_path / "partial" / "reports.csv").read_text().splitlines()))
    assert [(r["strategy"], r["n"]) for r in rows] == [("mc", "3")] * 3
    assert "reports.csv" in archive.manifest["files"]


def test_msfem_partial_results_flushed_on_solver_error(tmp_path, monkeypatch):
    baseline_solve = experiments.baseline_solve

    def failing_q1(mesh, perf, f, method, **kwargs):
        if method == "coarse_q1":
            raise AssemblyError("injected failure")
        return baseline_solve(mesh, perf, f, method, **kwargs)

    monkeypatch.setattr(experiments, "baseline_solve", failing_q1)
    text = MSFEM_CONFIG.replace("methods = cr", "methods = cr, linear, q1")
    archive = run(parse_config(write_config(tmp_path, text)), out_override=tmp_path / "partial")
    assert archive.status == "error"
    assert "injected failure" in archive.manifest["error"]
    rows = list(csv.DictReader((tmp_path / "partial" / "msfem.csv").read_text().splitlines()))
    assert [r["method"] for r in rows] == ["cr", "linear"]
    assert "msfem.csv" in archive.manifest["files"]


def test_replot_from_csv(tmp_path):
    cfg = parse_config(write_config(tmp_path, MSFEM_CONFIG))
    run(cfg, out_override=tmp_path / "ms")
    # the run and replot draw the error plots from msfem.csv and mean_ci.svg
    # from reports.csv with the same code
    drawn = (tmp_path / "ms" / "errors_l2.svg").read_bytes()
    (tmp_path / "ms" / "errors_l2.svg").unlink()
    assert replot(tmp_path / "ms") == ["errors_l2.svg", "errors_h1.svg"]
    assert (tmp_path / "ms" / "errors_l2.svg").read_bytes() == drawn
    run(parse_config(write_config(tmp_path, VR_CONFIG)), out_override=tmp_path / "vr")
    drawn = (tmp_path / "vr" / "mean_ci.svg").read_bytes()
    (tmp_path / "vr" / "mean_ci.svg").unlink()
    assert replot(tmp_path / "vr") == ["mean_ci.svg"]
    assert (tmp_path / "vr" / "mean_ci.svg").read_bytes() == drawn


def test_cli_run_and_validate(tmp_path, capsys):
    path = write_config(tmp_path, MSFEM_CONFIG)
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "cli_out")]) == 0
    out = capsys.readouterr().out
    assert "archive" in out
    assert (tmp_path / "cli_out" / "manifest.json").exists()


def test_cli_exit_code_on_config_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = nonsense\n")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert cli_main(["validate", "--config", str(tmp_path / "missing.ini")]) == 2


def test_threads_key_accepts_only_one(tmp_path, capsys):
    # runs are single-threaded; `threads = 1` stays valid in old configs
    one = write_config(tmp_path, VR_CONFIG.replace("out = {out}\n", "out = {out}\nthreads = 1\n"))
    assert "threads" not in parse_config(one).snapshot()["experiment"]
    two = write_config(tmp_path, VR_CONFIG.replace("out = {out}\n", "out = {out}\nthreads = 2\n"),
                       name="two.ini")
    with pytest.raises(ConfigError, match="single-threaded"):
        parse_config(two)
    assert cli_main(["run", "--config", str(two), "--out", str(tmp_path / "t2")]) == 2
    assert cli_main(["validate", "--config", str(two)]) == 2
    assert not (tmp_path / "t2").exists()
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(one), "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_run_homogenize_kind(tmp_path):
    # plain Monte Carlo alone is vr-compare with strategies = mc
    text = VR_CONFIG.replace("strategies = mc, antithetic", "strategies = mc")
    cfg = parse_config(write_config(tmp_path, text))
    archive = run(cfg, out_override=tmp_path / "h")
    assert archive.status == "ok"
    rows = (tmp_path / "h" / "reports.csv").read_text().splitlines()
    assert all(line.startswith("mc,") for line in rows[1:])
    assert not (tmp_path / "h" / "comparison.csv").exists()


def test_seed_override_leaves_the_config_unchanged(tmp_path):
    # the override holds for one run: a later run of the same config is
    # back on the config's own seed
    text = VR_CONFIG.replace("strategies = mc, antithetic", "strategies = mc")
    cfg = parse_config(write_config(tmp_path, text))
    overridden = run(cfg, out_override=tmp_path / "s5", seed_override=5)
    assert cfg.seed == 11
    snapshot = json.loads((tmp_path / "s5" / "config_snapshot.json").read_text())
    assert snapshot["experiment"]["seed"] == overridden.manifest["seed"] == 5
    assert run(cfg, out_override=tmp_path / "s11").manifest["seed"] == 11


ROBUST_CONFIG = """
[experiment]
kind = msfem-robustness
seed = 0
out = {out}

[geometry]
kind = periodic_discs
epsilon = 0.25
radius_factor = 0.2

[msfem]
h = 1/2
fine_n = 16
methods = cr, linear
"""


def test_run_msfem_robustness_kind(tmp_path):
    cfg = parse_config(write_config(tmp_path, ROBUST_CONFIG))
    archive = run(cfg, out_override=tmp_path / "rob")
    assert archive.status == "ok"
    rows = (tmp_path / "rob" / "msfem.csv").read_text().splitlines()
    geometries = {line.split(",")[2] for line in rows[1:]}
    assert geometries == {"test1_unshifted", "test2_shifted"}
    assert len(rows) == 1 + 2 * 2  # 2 geometries x 2 methods


def test_incompatible_reference_rejected(tmp_path):
    # msfem.reference_n may only name the one grid every level has: a finer
    # multiple, another level's grid or the old lcm default is refused
    two_levels = MSFEM_CONFIG.replace("h = 1/4\nfine_n = 8", "h = 1/4, 1/3\nfine_n = 8")
    for text, value, grids in ((MSFEM_CONFIG, 64, "32"), (MSFEM_CONFIG, 16, "32"),
                               (two_levels, 32, "24, 32"), (two_levels, 96, "24, 32")):
        path = write_config(tmp_path, text + f"reference_n = {value}\n")
        with pytest.raises(ConfigError, match=rf"msfem\.reference_n={value} .*\({grids}\)"):
            parse_config(path)
    cfg = parse_config(write_config(tmp_path, MSFEM_CONFIG + "reference_n = 32\n"))
    assert cfg.snapshot()["msfem"]["reference_n"] == 32
    assert validate(cfg)["problems"] == []


ESTIMATE_CONFIGS = {
    # big random rectangles cover 2 of 16 and 3 of 25 elements and 9 and 13
    # internal edges at H = 1/4 and 1/5
    "msfem": MSFEM_CONFIG.replace("kind = none", "kind = random_rectangles\ncount = 20\n"
                                  "width_range = 0.1, 0.3\nheight_range = 0.1, 0.3\ngseed = 7")
                         .replace("h = 1/4\nfine_n = 8", "h = 1/4, 1/5\nfine_n = 8"),
    "msfem-robustness": ROBUST_CONFIG,
}


@pytest.mark.parametrize("bubbles", ["true", "false"])
@pytest.mark.parametrize("kind", sorted(ESTIMATE_CONFIGS))
def test_validate_estimate_matches_msfem_solves_made(tmp_path, monkeypatch, kind, bubbles):
    reference_solve = experiments.reference_solve
    references = []

    def counted(*args, **kwargs):
        references.append(args)
        return reference_solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "reference_solve", counted)
    text = ESTIMATE_CONFIGS[kind].replace("methods = cr, linear\n", "methods = cr\n")
    text = text.replace("methods = cr\n", f"methods = cr, linear, q1\nwith_bubbles = {bubbles}\n")
    cfg = parse_config(write_config(tmp_path, text))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        archive = run(cfg, out_override=tmp_path / "ms")
    assert archive.status == "ok"
    rows = list(csv.DictReader((tmp_path / "ms" / "msfem.csv").read_text().splitlines()))
    assert {r["method"] for r in rows} == {"cr", "linear", "q1"}
    made = sum(int(r["solves"]) for r in rows) + len(references)
    assert archive.manifest["estimated_pde_solves"] == made


RECTANGLES_CONFIG = ESTIMATE_CONFIGS["msfem"]


@pytest.mark.parametrize("ranges", ["0.05, 0.02", "0.05"], ids=["reversed", "one-number"])
def test_bad_rectangle_ranges_refused(tmp_path, ranges):
    # both once left `validate` and `run` with a traceback (exit 1)
    path = write_config(tmp_path, RECTANGLES_CONFIG.replace("width_range = 0.1, 0.3",
                                                            f"width_range = {ranges}"))
    assert any("width_range" in p for p in validate(parse_config(path))["problems"])
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert cli_main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "archive").exists()


FUZZ_CONFIGS = {"vr-compare": CV_CONFIG, "checkerboard": VR_CONFIG,
                "msfem": RECTANGLES_CONFIG, "msfem-robustness": ROBUST_CONFIG}
FUZZ_VALUES = ("0", "-1", "1", "0.5", "1, 2", "2, 1", "", "nan", "-inf")
CHOICE_KEYS = {"experiment.kind", "law.kind", "estimate.strategies", "geometry.kind",
               "msfem.methods", "msfem.f"}


@pytest.mark.parametrize("name", sorted(FUZZ_CONFIGS))
def test_validate_refuses_fuzzed_values_without_raising(tmp_path, name):
    # every value key of the config's sections set to small edge values:
    # `validate` accepts (0) or refuses (2), and never raises
    base = configparser.ConfigParser()
    base.read_string(FUZZ_CONFIGS[name].format(out=tmp_path / "archive"))
    keys = [(section, key) for section in base.sections()
            for key in (experiments._SCHEMA["law"][base["law"]["kind"]] if section == "law"
                        else experiments._SCHEMA[section])
            if f"{section}.{key}" not in CHOICE_KEYS]
    assert len(keys) >= 10
    path = tmp_path / "fuzz.ini"
    for section, key in keys:
        for value in FUZZ_VALUES:
            parser = configparser.ConfigParser()
            parser.read_dict(base)
            parser[section][key] = value
            with open(path, "w") as fh:
                parser.write(fh)
            code = cli_main(["validate", "--config", str(path)])
            assert code in (0, 2), (section, key, value)


@pytest.mark.parametrize("kind", ["msfem", "vr-compare"])
def test_archives_do_not_depend_on_the_blas_thread_count(tmp_path, kind):
    # OpenBLAS splits a ddot of 25,281 elements (the unknowns of the msfem
    # reference at N = 5 * 32 = 160) between threads and sums the parts in
    # another order; every CG sum is numpy's own, so 1 and 2 threads write
    # the same bytes
    text = (ESTIMATE_CONFIGS["msfem"].replace("h = 1/4, 1/5\nfine_n = 8", "h = 1/5\nfine_n = 32")
            if kind == "msfem" else VR_CONFIG)
    src = str(Path(experiments.__file__).resolve().parents[1])
    files = []
    for threads in ("1", "2"):
        path = tmp_path / f"{threads}.ini"
        path.write_text(text.format(out=tmp_path / f"threads-{threads}"))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "randpde.cli", "run", "--config", str(path)],
                       env=env, check=True, capture_output=True)
        manifest = json.loads((tmp_path / f"threads-{threads}" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        files.append(manifest["files"])
    assert files[0] == files[1]

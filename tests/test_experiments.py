import csv
import json
import warnings

import numpy as np
import pytest

from randpde import experiments
from randpde.cli import main as cli_main
from randpde.errors import ConfigError, ResolutionWarning, SolverError
from randpde.experiments import parse_config, replot, run, validate

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
reference_n = 64
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
    # mc: 2*2*6 solves per n, antithetic twice that, two box sizes
    assert diag["estimated_pde_solves"] == 2 * (12 + 24)


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
strategies = mc, cv1, cv2, sqs2
pool = 10
"""


def test_validate_estimate_matches_solves_made(tmp_path, monkeypatch):
    offline = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            offline.append(result.solves)
            return result
        return wrapper

    monkeypatch.setattr(experiments, "defect_coefficients",
                        counted(experiments.defect_coefficients))
    monkeypatch.setattr(experiments, "sqs_auxiliary", counted(experiments.sqs_auxiliary))
    cfg = parse_config(write_config(tmp_path, CV_CONFIG))
    archive = run(cfg, out_override=tmp_path / "cv")
    assert archive.status == "ok"
    rows = csv.DictReader((tmp_path / "cv" / "reports.csv").read_text().splitlines())
    online = {(r["strategy"], r["n"]): int(r["solves"]) for r in rows}
    assert len(online) == 8 and len(offline) == 4  # once per n: defects and sqs2
    made = sum(online.values()) + sum(offline)
    assert archive.manifest["estimated_pde_solves"] == made


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
    text = text.replace("reference_n = 64", "reference_n = 64\n")
    cfg = parse_config(write_config(tmp_path, text))
    diag = validate(cfg)
    assert any("under-resolves" in note for note in diag["notes"])
    cfg.strict = True
    diag_strict = validate(cfg)
    assert any("under-resolves" in p for p in diag_strict["problems"])


UNDERRESOLVED_CONFIG = MSFEM_CONFIG.replace(
    "kind = none", "kind = periodic_discs\nepsilon = 0.03\nradius_factor = 0.35").replace(
    "reference_n = 64", "reference_n = 32")


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
    (VR_CONFIG.replace("mc, antithetic", "mc, cv1"), "estimate.strategies"),
    (VR_CONFIG.replace("mc, antithetic", "mc, cv2"), "estimate.strategies"),
    (VR_CONFIG.replace("m = 6", "m = 1"), "estimate.m"),
    (VR_CONFIG.replace("r = 2", "r = 0"), "estimate.r"),
    (VR_CONFIG.replace("mc, antithetic", "mc, sqs2\npool = 5"), "estimate.pool"),
    (CV_CONFIG.replace("n = 4, 6", "n = 1, 4"), "estimate.n"),
    (VR_CONFIG.replace("beta = 20.0", "beta = 20.0\neta = 0.9"), "law.eta"),
    (CV_CONFIG.replace("eta = 0.5", "eta = 0.5\nalpha = 2"), "law.alpha"),
    (VR_CONFIG.replace("kind = vr-compare", "kind = homogenize"), "estimate.strategies"),
    (VR_CONFIG.replace("kind = vr-compare", "kind = homogenize")
     .replace("mc, antithetic", "sqs1"), "estimate.strategies"),
], ids=["cv1-checkerboard", "cv2-checkerboard", "m-1", "r-0", "sqs2-pool-below-m", "cv-n-1",
        "checkerboard-eta", "perturbed-alpha", "homogenize-antithetic", "homogenize-sqs1"])
def test_configs_that_run_cannot_solve_fail_validation(tmp_path, text, key):
    # each of these once passed `validate` and then failed in `run` as a
    # solver error, leaving a partial archive, or (the last four) ran
    # something else than the config states: a key of the other law kind
    # was dropped and a homogenize run's strategies replaced by mc
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


def test_run_msfem_archive(tmp_path):
    cfg = parse_config(write_config(tmp_path, MSFEM_CONFIG))
    archive = run(cfg, out_override=tmp_path / "ms")
    assert archive.status == "ok"
    rows = (tmp_path / "ms" / "msfem.csv").read_text().splitlines()
    assert rows[0] == "method,H,geometry,with_bubbles,l2_rel,h1_rel,dof,solves"
    assert len(rows) == 2
    l2 = float(rows[1].split(",")[4])
    assert np.isfinite(l2) and l2 < 1.0
    for name in ("errors_l2.svg", "errors_h1.svg", "heatmap_solution.svg",
                 "heatmap_perforations.svg", "manifest.json", "config_snapshot.json"):
        assert (tmp_path / "ms" / name).exists()


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
        text = text.replace("reference_n = 64", "reference_n = 32")
        archives.append(run(parse_config(write_config(tmp_path, text))))
    assert [a.out_dir for a in archives] == [tmp_path / "first", tmp_path / "second/nested"]
    assert archives[0].manifest["files"] == archives[1].manifest["files"]
    assert "config_snapshot.json" in archives[0].manifest["files"]
    snapshot = json.loads((tmp_path / "first" / "config_snapshot.json").read_text())
    assert "out" not in snapshot["experiment"]


def test_default_reference_matches_local_grids(tmp_path):
    # m * fine_n = 32 and 24: the matched reference is their lcm 96, and
    # 2 * max = 64 would not even contain the H = 1/3 local grids
    text = MSFEM_CONFIG.replace("h = 1/4\nfine_n = 8", "h = 1/4, 1/3\nfine_n = 8")
    text = text.replace("reference_n = 64\n", "")
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.msfem["reference_n"] == 96
    assert validate(cfg)["problems"] == []

    text = MSFEM_CONFIG.replace("reference_n = 64\n", "")
    archive = run(parse_config(write_config(tmp_path, text)), out_override=tmp_path / "ms")
    assert archive.status == "ok"
    snapshot = json.loads((tmp_path / "ms" / "config_snapshot.json").read_text())
    assert snapshot["msfem"]["reference_n"] == 32


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
    text = VR_CONFIG.replace("kind = vr-compare", "kind = homogenize")
    text = text.replace("strategies = mc, antithetic", "strategies = mc")
    cfg = parse_config(write_config(tmp_path, text))
    archive = run(cfg, out_override=tmp_path / "h")
    assert archive.status == "ok"
    rows = (tmp_path / "h" / "reports.csv").read_text().splitlines()
    assert all(line.startswith("mc,") for line in rows[1:])
    assert not (tmp_path / "h" / "comparison.csv").exists()


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
reference_n = 64
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
    text = MSFEM_CONFIG.replace("reference_n = 64", "reference_n = 100")
    cfg = parse_config(write_config(tmp_path, text))
    diag = validate(cfg)
    assert any("divisible" in p for p in diag["problems"])


ESTIMATE_CONFIGS = {
    # big random rectangles cover 2 of 16 and 3 of 25 elements and 9 and 13
    # internal edges at H = 1/4 and 1/5
    "msfem": MSFEM_CONFIG.replace("kind = none", "kind = random_rectangles\ncount = 20\n"
                                  "width_range = 0.1, 0.3\nheight_range = 0.1, 0.3\ngseed = 7")
                         .replace("h = 1/4\nfine_n = 8", "h = 1/4, 1/5\nfine_n = 8")
                         .replace("reference_n = 64", "reference_n = 160"),
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

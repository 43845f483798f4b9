"""Self-test of the benchmark: the reduced-size run and every check.

    python3 benchmark/selftest.py

1. Runs `run.py --quick` (all three workloads, untraced and traced, reduced
   sizes) and verifies its last line: the four keys, every end-to-end and
   per-layer metric of every workload with its unit, and no failed check.
2. Copies each workload's first round and corrupts one result at a time.
   Each corruption must make the check it targets fail, and the intact
   round must pass every check.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = run.RUNS / "selftest"


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def row(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def set_field(name, field, value_of, **match):
    """Corruption: set one CSV field, computed from the matching row."""
    def corrupt(d: Path):
        def edit(rows):
            r = row(rows, **match)
            r[field] = repr(value_of(r, rows))
        edit_csv(d / "archive" / name, edit)
    return corrupt


def swap_fields(name, field, a, b, key="strategy", **match):
    def corrupt(d: Path):
        def edit(rows):
            ra, rb = row(rows, **{key: a}, **match), row(rows, **{key: b}, **match)
            ra[field], rb[field] = rb[field], ra[field]
        edit_csv(d / "archive" / name, edit)
    return corrupt


def swap_cr_linear(d: Path):
    def edit(rows):
        for r in rows:
            r["method"] = {"cr": "linear", "linear": "cr"}.get(r["method"], r["method"])
    edit_csv(d / "archive" / "msfem.csv", edit)


def perturb_reference(d: Path):
    with np.load(d / "references.npz") as z:
        refs = {k: z[k].copy() for k in z.files}
    u = refs["ref0"]
    i, j = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    u[i, j] *= 1.0 + 1e-3
    np.savez(d / "references.npz", **refs)


def set_status(d: Path):
    path = d / "archive" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["status"] = "error"
    path.write_text(json.dumps(manifest))


def touch_plot(d: Path):
    svg = sorted((d / "archive").glob("*.svg"))[0]
    svg.write_text(svg.read_text() + "<!-- edited -->\n")


def band(r):
    return checks.Z_999 * (float(r["var"]) / int(r["m"])) ** 0.5


VR_CASES = {
    "vr.voigt_reuss": set_field("reports.csv", "mean", lambda r, rows: 12.0,
                                strategy="mc", entry="11"),
    "vr.agrees_with_mc": set_field(
        "reports.csv", "mean",
        lambda r, rows: float(r["mean"])
        + 2 * (band(r) + band(row(rows, strategy="mc", entry="11"))),
        strategy="sqs1", entry="11"),
    "vr.beats_mc_equal_cost": set_field(
        "reports.csv", "var",
        lambda r, rows: 10 * float(row(rows, strategy="mc", entry="22")["var"]),
        strategy="antithetic", entry="22"),
    "vr.cv2_beats_cv1": swap_fields("reports.csv", "var", "cv1", "cv2", entry="11"),
    "vr.sqs2_beats_sqs1": swap_fields("reports.csv", "var", "sqs1", "sqs2", entry="22"),
    "vr.sqs2_rejected": set_field("reports.csv", "rejected",
                                  lambda r, rows: int(r["rejected"]) - 1,
                                  strategy="sqs2", entry="11"),
    "vr.duality": set_field("reports.csv", "mean",
                            lambda r, rows: float(r["mean"]) + 3 * band(r) + 0.5,
                            strategy="mc", entry="22"),
}
MSFEM_CASES = {
    "msfem.cr_le_linear": swap_cr_linear,
    "reference.residual": perturb_reference,
}
DISC_CASES = {
    "discs.cr_below_1pct": set_field("msfem.csv", "l2_rel", lambda r, rows: 0.02,
                                     method="cr", geometry="test1_unshifted"),
    "discs.linear_degrades": set_field(
        "msfem.csv", "l2_rel",
        lambda r, rows: float(row(rows, method="linear", geometry="test1_unshifted",
                                  H=r["H"])["l2_rel"]) + 0.01,
        method="linear", geometry="test2_shifted"),
}
COMMON_CASES = {
    "archive.status_ok": set_status,
    "archive.hashes": touch_plot,
}
CASES = {
    "vr-compare": {**VR_CASES, **COMMON_CASES},
    "msfem-discs": {**MSFEM_CASES, **DISC_CASES, **COMMON_CASES},
    "msfem-random": {**MSFEM_CASES, **COMMON_CASES},
}


def check_output() -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=600)
    problems = []
    if proc.returncode != 0:
        return [f"run.py --quick exited {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"last line keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) > 0):
        problems.append(f"quick run: correct={result.get('correct')} "
                        f"failed={result.get('failed')} of {result.get('attempted')}")
    units = {**run.END_TO_END, **tracing.PER_LAYER}
    for w in WORKLOADS:
        for name, unit in units.items():
            got = result["metrics"].get(f"{w}/{name}")
            if (got is None or got.get("unit") != unit
                    or not isinstance(got.get("value"), (int, float))):
                problems.append(f"metric {w}/{name}: {got}")
    return problems


def main() -> int:
    problems = check_output()
    print(f"quick run output: {'ok' if not problems else 'FAILED'}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for w in WORKLOADS:
        source = run.RUNS / w / "round0"
        info = json.loads((source / "round.json").read_text())
        clean, _ = checks.run_checks(w, source, info, None, quick=True)
        bad = [n for n, (ok, _) in clean.items() if not ok]
        print(f"{w}: intact round passes {len(clean) - len(bad)}/{len(clean)} checks")
        problems += [f"{w}: intact round fails {n}" for n in bad]
        cases = dict(CASES[w])
        cases["archive.deterministic"] = None   # compared against other hashes below
        for target, corrupt in cases.items():
            d = SCRATCH / w / target
            shutil.copytree(source, d)
            first_csv = None
            if corrupt is None:
                first_csv = {k: "0" * 64 for k in checks.csv_hashes(d / "archive")}
            else:
                corrupt(d)
            res, _ = checks.run_checks(w, d, info, first_csv, quick=True)
            ok, detail = res[target]
            verdict = "fails as it should" if not ok else "STILL PASSES"
            print(f"  corrupt for {target:<24} -> {verdict}  ({detail[:90]})")
            if ok:
                problems.append(f"{w}: corruption did not fail {target}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "passed" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

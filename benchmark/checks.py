"""Correctness checks of one round, computed apart from the program.

Each check is one operation of the benchmark: it passes or fails as a
whole. The expectations come from the workload constants in `workloads.py`,
from formulas written out here with numpy (Voigt-Reuss bounds, the duality
value, the Q1 stencil of the penalized reference problem) and from the
archive's raw columns, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

# Two-sided 99.9% normal quantile. The archive's bands are 95% bands
# (1.96 sigma); at m = 40 a 95% comparison of six strategies fails on about
# one seed in twelve by chance alone, which would make a failure a property
# of the seed instead of the program. The checks therefore widen the bands
# the archive reports to 99.9%.
Z_999 = 3.2905
# Q1 overestimates the corrector tensor by about 0.59 / r (first order in
# h: the mean of A(r=8) - A(r=16) over 8 n = 10 configurations was 0.037,
# and A(r=16) - A(r=32) was 0.018).
RESOLUTION_BIAS_TIMES_R = 0.59
KAPPA_SCALE = 1e8          # the penalty kappa = 1e8 / h^2 of every reference
RESIDUAL_TOL = 1e-9

CHECKS = {
    "vr-compare": ["vr.voigt_reuss", "vr.agrees_with_mc", "vr.beats_mc_equal_cost",
                   "vr.cv2_beats_cv1", "vr.sqs2_beats_sqs1", "vr.sqs2_rejected",
                   "vr.duality"],
    "msfem-discs": ["msfem.cr_le_linear", "discs.cr_below_1pct",
                    "discs.linear_degrades", "reference.residual"],
    "msfem-random": ["msfem.cr_le_linear", "reference.residual"],
}
COMMON = ["archive.status_ok", "archive.hashes", "archive.deterministic"]
REFERENCES = {"vr-compare": 0, "msfem-discs": 2, "msfem-random": 1}


def check_names(workload: str) -> list[str]:
    return CHECKS[workload] + COMMON


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_hashes(archive: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(archive.glob("*.csv"))}


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------- vr-compare

def vr_checks(archive: Path, quick: bool) -> dict:
    size = wl.sizes("vr-compare", quick)
    rows = {(r["strategy"], r["entry"]): r for r in read_csv(archive / "reports.csv")}
    alpha, beta = wl.A_PER, wl.A_PER + wl.C_PER
    reuss = 1.0 / ((1 - wl.ETA) / alpha + wl.ETA / beta)
    voigt = (1 - wl.ETA) * alpha + wl.ETA * beta
    entries = ("11", "22")

    def stat(s, e):
        r = rows[(s, e)]
        m = int(r["m"])
        var = float(r["var"])
        return {"mean": float(r["mean"]), "var": var, "m": m,
                "cost": int(r["solves"]) / m, "band": Z_999 * math.sqrt(var / m),
                "rejected": int(r["rejected"])}

    st = {(s, e): stat(s, e) for s in wl.STRATEGIES for e in entries}

    def equal_cost(s, e, base="mc"):
        a, b = st[(base, e)], st[(s, e)]
        return (a["var"] * a["cost"]) / (b["var"] * b["cost"])

    out = {}
    bad = [f"{s}/{e}={st[(s, e)]['mean']:.4f}" for (s, e) in st
           if not reuss <= st[(s, e)]["mean"] <= voigt]
    out["vr.voigt_reuss"] = (not bad, f"bounds [{reuss:.4f}, {voigt}] " + " ".join(bad))
    bad = []
    for s in wl.STRATEGIES[1:]:
        for e in entries:
            a, b = st[(s, e)], st[("mc", e)]
            if abs(a["mean"] - b["mean"]) > a["band"] + b["band"]:
                bad.append(f"{s}/{e}: |{a['mean']:.4f}-{b['mean']:.4f}| > "
                           f"{a['band'] + b['band']:.4f}")
    out["vr.agrees_with_mc"] = (not bad, " ".join(bad))
    factors = {(s, e): equal_cost(s, e) for s in wl.STRATEGIES[1:] for e in entries}
    bad = [f"{s}/{e}={f:.2f}" for (s, e), f in factors.items() if not f > 1.0]
    out["vr.beats_mc_equal_cost"] = (not bad, "min factor %.2f " % min(factors.values())
                                     + " ".join(bad))
    for better, worse in (("cv2", "cv1"), ("sqs2", "sqs1")):
        ratios = [equal_cost(better, e, base=worse) for e in entries]
        out[f"vr.{better}_beats_{worse}"] = (
            all(f > 1.0 for f in ratios), " ".join(f"{e}:{f:.2f}" for e, f in zip(entries, ratios)))
    want = size["pool"] - size["m"]
    got = {st[("sqs2", e)]["rejected"] for e in entries}
    out["vr.sqs2_rejected"] = (got == {want}, f"rejected {sorted(got)} want {want}")
    dual = math.sqrt(alpha * beta)
    bias = RESOLUTION_BIAS_TIMES_R / size["r"]
    bad = []
    for e in entries:
        mc = st[("mc", e)]
        if abs(mc["mean"] - dual) > mc["band"] + bias:
            bad.append(f"{e}: |{mc['mean']:.4f}-{dual:.4f}| > {mc['band']:.4f}+{bias:.4f}")
    out["vr.duality"] = (not bad, " ".join(bad))
    return out


def vr_solves_made(archive: Path, offline: dict) -> int:
    per_strategy = {r["strategy"]: int(r["solves"]) for r in read_csv(archive / "reports.csv")}
    return sum(per_strategy.values()) + sum(offline.values())


# --------------------------------------------------------------------- msfem

def msfem_checks(workload: str, archive: Path, quick: bool) -> dict:
    rows = read_csv(archive / "msfem.csv")
    err = {(r["geometry"], float(r["H"]), r["method"]): (float(r["l2_rel"]), float(r["h1_rel"]))
           for r in rows}
    out = {}
    bad = []
    for (geo, H, method), cr in err.items():
        if method != "cr":
            continue
        lin = err[(geo, H, "linear")]
        if not (cr[0] <= lin[0] and cr[1] <= lin[1]):
            bad.append(f"{geo} H={H:g}: cr {cr} linear {lin}")
    out["msfem.cr_le_linear"] = (not bad and bool(err), " ".join(bad))
    if workload == "msfem-discs":
        coarse = [H for (_, H, m) in err if m == "cr" and H >= wl.EPSILON - 1e-12]
        bad = [f"{g} H={H:g}: {err[(g, H, 'cr')]}" for (g, H, m) in err
               if m == "cr" and H in coarse and max(err[(g, H, "cr")]) >= 0.01]
        out["discs.cr_below_1pct"] = (not bad and bool(coarse), " ".join(bad))
        drops = {H: err[("test2_shifted", H, "linear")][0]
                 - err[("test1_unshifted", H, "linear")][0] for H in sorted(set(coarse))}
        out["discs.linear_degrades"] = (
            bool(drops) and all(d >= 0.08 for d in drops.values()),
            " ".join(f"H={H:g}:{100 * d:+.1f}pt" for H, d in drops.items()))
    return out


def msfem_solves_made(archive: Path, n_references: int) -> int:
    return sum(int(r["solves"]) for r in read_csv(archive / "msfem.csv")) + n_references


def cell_mask(geometry: dict, n: int) -> np.ndarray:
    """Cells of the n x n grid whose centers lie in a perforation."""
    h = 1.0 / n
    c = (np.arange(n) + 0.5) * h
    x, y = np.meshgrid(c, c, indexing="ij")
    if geometry["kind"] == "rectangles":
        mask = np.zeros((n, n), dtype=bool)
        for cx, cy, w, hh in geometry["rects"]:
            mask |= (np.abs(x - cx) <= 0.5 * w) & (np.abs(y - cy) <= 0.5 * hh)
        return mask
    eps, rad = geometry["epsilon"], geometry["radius"]
    dx = np.mod(x - geometry["shift"][0] - 0.5 * eps, eps)
    dy = np.mod(y - geometry["shift"][1] - 0.5 * eps, eps)
    dx = np.minimum(dx, eps - dx)
    dy = np.minimum(dy, eps - dy)
    return dx * dx + dy * dy <= rad * rad


def penalized_residual(u: np.ndarray, mask: np.ndarray) -> float:
    """Relative residual of nodal values u against the penalized system
    (Q1 Laplacian + kappa h^2 Q1 mass on masked cells, load f = 1),
    assembled here by stencils; only interior nodes carry equations."""
    n = mask.shape[0]
    h = 1.0 / n
    kappa = KAPPA_SCALE / (h * h)
    c = u[1:-1, 1:-1]
    ring = (u[:-2, :-2] + u[:-2, 1:-1] + u[:-2, 2:] + u[1:-1, :-2] + u[1:-1, 2:]
            + u[2:, :-2] + u[2:, 1:-1] + u[2:, 2:])
    ku = (8.0 * c - ring) / 3.0
    w = kappa * h * h / 36.0 * mask
    sw, se, ne, nw = u[:-1, :-1], u[1:, :-1], u[1:, 1:], u[:-1, 1:]
    mass = np.zeros_like(u)
    mass[:-1, :-1] += w * (4 * sw + 2 * se + ne + 2 * nw)
    mass[1:, :-1] += w * (2 * sw + 4 * se + 2 * ne + nw)
    mass[1:, 1:] += w * (sw + 2 * se + 4 * ne + 2 * nw)
    mass[:-1, 1:] += w * (2 * sw + se + 2 * ne + 4 * nw)
    load = np.zeros_like(u)
    q = h * h / 4.0
    load[:-1, :-1] += q
    load[1:, :-1] += q
    load[1:, 1:] += q
    load[:-1, 1:] += q
    b = load[1:-1, 1:-1]
    r = ku + mass[1:-1, 1:-1] - b
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def reference_checks(workload: str, round_dir: Path, info: dict, quick: bool) -> dict:
    want = REFERENCES[workload]
    n = wl.sizes(workload, quick)["reference_n"]
    with np.load(round_dir / "references.npz") as z:
        refs = [z[f"ref{k}"] for k in range(len(z.files))]
    notes = []
    ok = len(refs) == want == len(info["geometries"])
    for u, geo in zip(refs, info["geometries"]):
        if u.shape != (n + 1, n + 1):
            ok = False
            notes.append(f"shape {u.shape}")
            continue
        boundary = max(np.abs(u[0]).max(), np.abs(u[-1]).max(),
                       np.abs(u[:, 0]).max(), np.abs(u[:, -1]).max())
        res = penalized_residual(u, cell_mask(geo, n))
        ok = ok and boundary == 0.0 and res <= RESIDUAL_TOL
        notes.append(f"{geo['kind']}: residual {res:.2e} boundary {boundary:.1e}")
    return {"reference.residual": (ok, f"{len(refs)}/{want} references " + "; ".join(notes))}


# ---------------------------------------------------------------- all rounds

def archive_checks(archive: Path, first_csv: dict | None) -> dict:
    manifest = json.loads((archive / "manifest.json").read_text())
    listed = manifest.get("files", {})
    on_disk = {p.name: sha256(p) for p in sorted(archive.iterdir())
               if p.is_file() and p.name != "manifest.json"}
    wrong = sorted(k for k in set(listed) | set(on_disk) if listed.get(k) != on_disk.get(k))
    mine = csv_hashes(archive)
    return {
        "archive.status_ok": (manifest.get("status") == "ok",
                              f"status {manifest.get('status')!r}"),
        "archive.hashes": (not wrong and bool(listed), " ".join(wrong)),
        "archive.deterministic": (bool(mine) and (first_csv is None or mine == first_csv),
                                  "" if first_csv is None or mine == first_csv
                                  else "CSV hashes differ from the first round"),
    }


def run_checks(workload: str, round_dir: Path, info: dict, first_csv: dict | None,
               quick: bool) -> tuple[dict, int]:
    """All checks of one finished round -> ({name: (ok, detail)}, solves made).
    A check whose input is missing or malformed fails with the error as detail."""
    archive = round_dir / "archive"
    parts = [lambda: archive_checks(archive, first_csv)]
    if workload == "vr-compare":
        parts.append(lambda: vr_checks(archive, quick))
        solves = lambda: vr_solves_made(archive, info.get("offline_solves", {}))
    else:
        parts += [lambda: msfem_checks(workload, archive, quick),
                  lambda: reference_checks(workload, round_dir, info, quick)]
        solves = lambda: msfem_solves_made(archive, len(info.get("geometries", [])))
    results: dict = {}
    errors = []
    for part in parts:
        try:
            results.update(part())
        except Exception as exc:  # a malformed archive fails its checks, not the run
            errors.append(f"{type(exc).__name__}: {exc}")
    missing = (False, "not computed: " + "; ".join(errors))
    out = {name: results.get(name, missing) for name in check_names(workload)}
    try:
        made = solves()
    except Exception:  # bookkeeping only; the checks above already failed
        made = 0
    return out, made

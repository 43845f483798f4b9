"""Benchmark of randpde: three experiment workloads, end-to-end time and
memory, and a traced per-layer run.

    python3 benchmark/run.py                       # all three workloads, untraced then traced
    python3 benchmark/run.py --workload vr-compare --seed 3 --seconds 30 --trace 0
    python3 benchmark/run.py --quick               # reduced sizes, one round each

Each round is a fresh child process (`child.py`) that runs
`randpde.experiments.run` on a config generated from the seed, with BLAS
limited to `nproc` threads and the program's own thread pool off. A run
first starts a few set-up-only children, then repeats whole rounds until
`--seconds` have passed. Every round is checked (`checks.py`); each check
is one operation, and a failed check is a failed operation. End-to-end
metrics are medians over the rounds of a run. With `--trace 1` rounds
alternate untraced and traced, and the per-layer metrics come from the
traced rounds' spans (`tracing.py`). The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 3
ROUND_TIMEOUT_S = 120
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def spawn(workload: str, seed: int, round_dir: Path, traced: bool, quick: bool,
          setup_only: bool = False) -> tuple[dict | None, str]:
    """Run one child; returns (its round.json, error text)."""
    round_dir.mkdir(parents=True)
    flags = (["--trace"] if traced else []) + (["--quick"] if quick else []) \
        + (["--setup-only"] if setup_only else [])
    base = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--round-dir", str(round_dir)] + flags
    spawned = time.time()
    try:
        proc = subprocess.run(base + ["--spawned", repr(spawned)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {ROUND_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: " + proc.stderr.strip()[-600:]
    return json.loads((round_dir / "round.json").read_text()), ""


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """One run: set-up probes, then whole rounds until `seconds` have passed."""
    wdir = RUNS / workload
    shutil.rmtree(wdir, ignore_errors=True)
    setups = []
    for k in range(1 if quick else SETUP_PROBES):
        info, err = spawn(workload, seed, wdir / f"setup{k}", False, quick, setup_only=True)
        if info is None:
            print(f"  set-up probe {k} failed: {err}")
        else:
            setups.append(info["setup_s"])

    attempted = failed = 0
    first_csv = None
    rounds = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = trace and k % 2 == 1
        round_dir = wdir / f"round{k}"
        info, err = spawn(workload, seed, round_dir, traced, quick)
        if info is None:
            results = {name: (False, err) for name in checks.check_names(workload)}
            solves = 0
        else:
            results, solves = checks.run_checks(workload, round_dir, info, first_csv, quick)
            if first_csv is None and (round_dir / "archive").is_dir():
                first_csv = checks.csv_hashes(round_dir / "archive")
        bad = {n: d for n, (ok, d) in results.items() if not ok}
        attempted += len(results)
        failed += len(bad)
        rounds.append({"dir": round_dir, "traced": traced, "info": info, "solves": solves})
        tag = "traced" if traced else "untraced"
        if info is None:
            print(f"  round {k} [{tag}] FAILED: {err}")
        else:
            print(f"  round {k} [{tag}] setup {info['setup_s']:.3f} s  wall "
                  f"{info['wall_s']:.3f} s  peak RSS {info['peak_rss_mb']:.0f} MB  "
                  f"checks {len(results) - len(bad)}/{len(results)}  solves made {solves}")
        for name, detail in bad.items():
            print(f"    FAIL {name}: {detail}")
        done = time.perf_counter() - start >= seconds
        if done and (not trace or k >= 1):
            break

    ok_rounds = [r for r in rounds if r["info"] is not None]
    plain = [r["info"] for r in ok_rounds if not r["traced"]]
    result = {"attempted": attempted, "failed": failed, "rounds": rounds}
    result["end_to_end"] = {
        "wall_s": median([i["wall_s"] for i in plain]),
        "setup_s": median(setups + [r["info"]["setup_s"] for r in ok_rounds]),
        "peak_rss_mb": median([i["peak_rss_mb"] for i in plain]),
    }
    report_bookkeeping(workload, ok_rounds)
    if trace:
        result["per_layer"] = traced_metrics(ok_rounds, result["end_to_end"]["wall_s"])
    return result


def report_bookkeeping(workload: str, rounds: list) -> None:
    if not rounds:
        return
    r = rounds[-1]
    manifest = json.loads((r["dir"] / "archive" / "manifest.json").read_text())
    print(f"  solves: made {r['solves']}, estimated by validate "
          f"{manifest['estimated_pde_solves']} (offline {r['info']['offline_solves']})")


def traced_metrics(rounds: list, untraced_wall: float) -> dict:
    """Medians over the traced rounds, the tracing overhead, and a breakdown
    of the last traced round."""
    traced = [r for r in rounds if r["traced"]]
    if not traced:
        return {name: 0.0 for name in tracing.PER_LAYER}
    per_round = []
    for r in traced:
        spans = json.loads((r["dir"] / "spans.json").read_text())
        per_round.append(tracing.layer_metrics(spans, r["info"]["wall_s"], r["solves"]))
    out = {name: median([m[name] for m in per_round]) for name in tracing.PER_LAYER}
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    wall = traced[-1]["info"]["wall_s"]
    print(f"  traced breakdown (last traced round, wall {wall:.3f} s):")
    print(f"    {'span':<24}{'calls':>8}{'incl s':>10}{'self s':>10}{'self %':>8}")
    for name, calls, incl, own in tracing.breakdown(spans):
        print(f"    {name:<24}{calls:>8}{incl:>10.3f}{own:>10.3f}{100 * own / wall:>7.1f}%")
    print(f"    not covered by any span: {per_round[-1]['trace.unaccounted_s']:.4f} s; "
          f"tracing overhead (median traced - untraced wall): {out['trace.overhead_s']:+.3f} s")
    missing = traced[-1]["info"]["missing"]
    if missing:
        print(f"    MISSING layers {tracing.missing_layers(missing)}: not found or with a "
              f"changed return value: {', '.join(missing)}; metrics fed only by them read 0")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default 30; 0 with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics "
                         "(default: both, one run each)")
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes that exercise the harness in well under a minute")
    args = ap.parse_args()
    if not (ROOT / "src" / "randpde" / "__init__.py").is_file():
        print(f"no randpde sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (0.0 if args.quick else 30.0)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"nproc {nproc()}, BLAS threads {nproc()}, seed {args.seed}, "
          f"{seconds:g} s per run{', quick sizes' if args.quick else ''}")

    attempted = failed = 0
    metrics = {}
    for name in names:
        for traced in modes:
            print(f"{name} [{'trace 1' if traced else 'trace 0'}]")
            res = run_workload(name, args.seed, seconds, traced, args.quick)
            attempted += res["attempted"]
            failed += res["failed"]
            values = ({k: (v, tracing.PER_LAYER[k]) for k, v in res["per_layer"].items()}
                      if traced else
                      {k: (v, END_TO_END[k]) for k, v in res["end_to_end"].items()})
            for key, (value, unit) in values.items():
                print(f"  {key:<32}{value:>14.6g} {unit}")
                label = key if len(names) == 1 else f"{name}/{key}"
                metrics[label] = {"value": value, "unit": unit}
            print(f"  operations: attempted {res['attempted']}, failed {res['failed']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of one workload, in its own process.

    python3 benchmark/child.py --workload W --seed S --round-dir DIR \
        --spawned T [--trace] [--quick] [--setup-only]

T is the parent's `time.time()` just before it started this process, so
`setup_s` covers the interpreter, `import randpde` (numpy and scipy), config
generation and `parse_config`: everything up to the call into `run()`.
`wall_s` runs from that call to the written archive. The round writes
`round.json`, the reference solutions the run made (`references.npz`) and,
when traced, its spans (`spans.json`) into DIR. With --setup-only the round
stops just before the call into `run()` and writes only `round.json`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round-dir", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import randpde
    from randpde import experiments

    import tracing
    import workloads

    if Path(randpde.__file__).resolve().parent != ROOT / "src" / "randpde":
        sys.exit(f"randpde was imported from {randpde.__file__}, not from {ROOT / 'src'}")

    out = Path(args.round_dir)
    config = out / "config.ini"
    config.write_text(workloads.config_text(args.workload, args.seed,
                                            str(out / "archive"), args.quick))
    cfg = experiments.parse_config(config)
    rec = tracing.Recorder(traced=args.trace)
    tracing.install(rec)
    run = rec.root(experiments.run)

    setup_s = time.time() - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        t0 = time.perf_counter()
        archive = run(cfg)
        result["wall_s"] = time.perf_counter() - t0
        result.update(status=archive.status, offline_solves=dict(rec.offline_solves),
                      missing=rec.missing)
        np.savez(out / "references.npz", **{
            f"ref{k}": ref.values for k, (ref, _) in enumerate(rec.references)})
        result["geometries"] = [geometry_params(perf) for _, perf in rec.references]
        if args.trace:
            (out / "spans.json").write_text(json.dumps(rec.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "round.json").write_text(json.dumps(result))


def geometry_params(perf) -> dict:
    """The parameters of the program's geometry object, so the checks can
    classify cells with their own copy of its formula."""
    if hasattr(perf, "rects"):
        return {"kind": "rectangles", "rects": [list(r) for r in perf.rects]}
    return {"kind": "discs", "epsilon": perf.epsilon, "radius": perf.radius,
            "shift": list(perf.shift)}


if __name__ == "__main__":
    main()

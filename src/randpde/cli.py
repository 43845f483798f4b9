"""Command line entry point: run experiments, validate configs, redraw plots.

Exit codes: 0 on success, 2 for configuration problems, 3 for solver errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, RandpdeError
from .experiments import parse_config, replot, run, validate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randpde",
        description="Homogenization Monte Carlo and multiscale FEM experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--strict", action="store_true",
                       help="escalate resolution warnings to errors")

    p_val = sub.add_parser("validate", help="check a config without solving")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--strict", action="store_true")

    p_plot = sub.add_parser("plot", help="regenerate SVG plots from archived CSVs")
    p_plot.add_argument("--archive", required=True, help="run archive directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            for name in replot(args.archive):
                print(f"wrote {name}")
            return 0
        cfg = parse_config(args.config)
        cfg.strict = cfg.strict or args.strict
        if args.command == "validate":
            diag = validate(cfg)
            print(json.dumps(diag, indent=2, sort_keys=True))
            return 0 if not diag["problems"] else 2
        archive = run(cfg, out_override=args.out, seed_override=args.seed)
        print(f"archive: {archive.out_dir}")
        if archive.status != "ok":
            print(archive.manifest.get("error", "solver error"), file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RandpdeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

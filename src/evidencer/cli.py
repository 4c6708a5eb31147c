"""Command-line entry point.

Each pipeline stage is a subcommand of its own name, but bms is
``bms-group``; dependencies are pulled in automatically. ``pipeline`` runs
several stages in one run.

Exit codes: 0 success, 2 configuration or input error, 3 numeric failure,
4 some stages succeeded and some failed.
"""

from __future__ import annotations

import argparse
import sys

from .dataio import load_config
from .errors import ConfigError, EvidencerError, ParseError
from .pipeline import EP_METHODS, STAGE_NAMES, RunOptions, run_pipeline, supported_stages

# one subcommand per stage, under the stage's name but for bms
_SUBCOMMANDS = {"bms-group" if s == "bms" else s: s for s in STAGE_NAMES}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="analysis config (JSON)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for voxel chunks (default 1)",
    )
    parser.add_argument(
        "--ep-method",
        choices=EP_METHODS,
        default="integration",
        help="exceedance probability method (default integration)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="Monte Carlo sample count for --ep-method sampling (default 1e6)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidencer",
        description="Bayesian model assessment for mass-univariate GLMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        _common_arguments(p)
    p = sub.add_parser("pipeline", help="run several stages in one pass")
    _common_arguments(p)
    p.add_argument(
        "--stages",
        default="auto",
        help="comma-separated stage list from "
        f"{{{','.join(STAGE_NAMES)}}}, or 'auto' for every stage the "
        "config supports (default auto)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "pipeline":
            if args.stages == "auto":
                stages = supported_stages(config)
            else:
                stages = tuple(
                    s.strip() for s in args.stages.split(",") if s.strip()
                )
                if not stages:
                    raise ConfigError("--stages must name at least one stage")
        else:
            stages = (_SUBCOMMANDS[args.command],)
        options = RunOptions(
            out_dir=args.out,
            seed=args.seed,
            threads=args.threads,
            ep_method=args.ep_method,
            samples=args.samples,
        )
        manifest = run_pipeline(config, stages, options)
    except (ConfigError, ParseError) as exc:
        print(f"evidencer: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvidencerError as exc:
        print(f"evidencer: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    states = [entry["status"] for entry in manifest["stages"].values()]
    failures = [s for s in states if not s.startswith("ok")]
    for stage, entry in manifest["stages"].items():
        print(f"{stage}: {entry['status']}")
        if entry["status"].startswith("failed"):
            print(f"evidencer: stage {stage} {entry['status']}", file=sys.stderr)
    if not failures:
        return EXIT_OK
    if len(failures) == len(states):
        return EXIT_NUMERIC
    return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands map to experiment families: sweep-m, sweep-l, sweep-neighborhood
(recovery-rate sweeps emitting CSV/JSON rows), mac-compare (paired sum-channel
vs parallel-channel trials), bounds (analytical report as JSON), and
oracle-check (greedy vs exhaustive-search agreement).

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

import argparse
import json
import sys

from .algorithms import MAC_COMPARE
from .config import ExperimentConfig, load_config, validate
from .errors import ConfigError
from .harness import bounds_report, oracle_check, rows_to_csv, rows_to_json, run_sweep

SWEEP_KINDS = {"sweep-m": "m", "sweep-l": "l", "sweep-neighborhood": "n0"}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    parser.add_argument("--trials", type=int, metavar="N", help="trial-count override")
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jspr",
        description="Joint sparsity pattern recovery experiments and bound reports")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("sweep-m", "recovery rate vs measurements per node"),
            ("sweep-l", "recovery rate vs number of nodes"),
            ("sweep-neighborhood", "recovery rate vs one-hop neighborhood size"),
            ("mac-compare", "sum-channel OMP vs simultaneous OMP, paired trials"),
            ("bounds", "analytical bound report (JSON)"),
            ("oracle-check", "greedy vs exhaustive-search agreement (JSON)")):
        _add_common_flags(sub.add_parser(name, help=help_text))
    return parser


def _load(args) -> ExperimentConfig:
    """The config with the flags applied, validated again so a bad flag fails as a bad key."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    if args.out is not None:
        cfg.out_path = args.out
    if args.format is not None:
        cfg.out_format = args.format
    validate(cfg)
    return cfg


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "mac-compare":
            cfg.algorithms = list(MAC_COMPARE)
        if args.command in SWEEP_KINDS or args.command == "mac-compare":
            rows = run_sweep(cfg, SWEEP_KINDS.get(args.command, "m"))
            text = rows_to_csv(rows) if cfg.out_format == "csv" else rows_to_json(rows)
        elif args.command == "bounds":
            text = json.dumps(bounds_report(cfg), indent=2) + "\n"
        elif args.command == "oracle-check":
            text = json.dumps(oracle_check(cfg), indent=2) + "\n"
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        _emit(cfg, text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

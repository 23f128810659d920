"""Command-line entry point: one command per experiment family (`COMMANDS`).
`--seed`, `--trials`, `--out` and `--format` are parsed as the config keys of their names.

Exit codes: 0 success; 1 configuration error, before any trial (a bad key
or flag value, or an `out` that is a directory or lies in a missing one);
2 runtime error, or an unknown command or flag (argparse).
"""

import argparse
import json
import os
import sys

from .algorithms import MAC_COMPARE
from .config import ExperimentConfig, load_config, set_key, validate
from .errors import ConfigError
from .harness import bounds_report, oracle_check, rows_to_csv, rows_to_json, run_sweep


def _sweep(kind: str, algorithms=None):
    def run(cfg: ExperimentConfig) -> str:
        if algorithms:
            cfg.algorithms = list(algorithms)
        rows = run_sweep(cfg, kind)
        return rows_to_csv(rows) if cfg.out_format == "csv" else rows_to_json(rows)
    return run


def _report(build):
    return lambda cfg: json.dumps(build(cfg), indent=2) + "\n"


# command -> (help line, config -> output text)
COMMANDS = {
    "sweep-m": ("recovery rate vs measurements per node", _sweep("m")),
    "sweep-l": ("recovery rate vs number of nodes", _sweep("l")),
    "sweep-neighborhood": ("recovery rate vs one-hop neighborhood size", _sweep("n0")),
    "mac-compare": ("sum-channel OMP vs simultaneous OMP, paired trials",
                    _sweep("m", MAC_COMPARE)),
    "bounds": ("analytical bound report (JSON)", _report(bounds_report)),
    "oracle-check": ("greedy vs exhaustive-search agreement (JSON)", _report(oracle_check)),
}

# value flag --KEY -> its metavar; the flag overrides config key KEY
FLAGS = {"seed": "U64", "trials": "N", "out": "PATH", "format": "csv|json"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jspr", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Joint sparsity pattern recovery experiments and bound reports",
        epilog="commands:\n" + "".join(f"  {c:<20}{h}\n" for c, (h, _) in COMMANDS.items()))
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND", help="see below")
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    for key, metavar in FLAGS.items():
        parser.add_argument(f"--{key}", metavar=metavar, help=f"overrides config key '{key}'")
    return parser


def _load(args) -> ExperimentConfig:
    """The config with the flags applied, checked as a whole before any trial."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    for key in FLAGS:
        if getattr(args, key) is not None:
            set_key(cfg, key, getattr(args, key), f"flag --{key}")
    validate(cfg)
    out = cfg.out_path
    if out is not None and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigError(f"key 'out': {out!r} is a directory or its directory does not exist")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        text = COMMANDS[args.command][1](cfg)
        if cfg.out_path:
            with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

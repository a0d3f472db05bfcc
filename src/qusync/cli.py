"""Command-line front end.

Subcommands: ``evolve``, ``sync-sweep``, ``info-sweep``, ``discord-bench``.
Exit codes: 0 on success, 1 on configuration errors and on output files that
cannot be written, 2 on numerical failures (the failing grid point is named
on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .experiments import (
    NumericalFailure,
    cmd_discord_bench,
    cmd_evolve,
    cmd_info_sweep,
    cmd_sync_sweep,
)
from .operators import ValidationError

_COMMANDS = {
    "evolve": cmd_evolve,
    "sync-sweep": cmd_sync_sweep,
    "info-sweep": cmd_info_sweep,
    "discord-bench": cmd_discord_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qusync",
        description="Two-qubit synchronization and correlation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", metavar="PATH", default=None,
                       help="INI-style config file (defaults used when omitted)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--seed", metavar="INT", type=int, default=None,
                       help="random seed (overrides the config)")
        p.add_argument("--unit", choices=["bits", "nats"], default=None,
                       help="entropy unit (overrides the config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig().validate()
        cfg = apply_overrides(cfg, out_dir=args.out, seed=args.seed, unit=args.unit)
        written = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:  # not a file the command writes
            raise
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except (NumericalFailure, ValidationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

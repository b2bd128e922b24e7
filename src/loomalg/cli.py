"""Command-line entry points: `loomalg run FILE` and `loomalg fmt FILE`.

Exit codes: 0 when every command passed, 1 when analysis ran but some
command failed, 2 for usage, parse and file errors.  Files are read as UTF-8;
diagnostics go to stderr, reports to stdout (or to --json OUT).
"""

from __future__ import annotations

import argparse
import sys

from .dsl import format_document, parse
from .runner import execute, render_text, report_json


def _box_arg(text: str):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"box must be comma-separated integers, got {text!r}"
        )
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(
            "box radii must be nonnegative integers"
        )
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loomalg",
        description="Exact loop-algebra constructions: centroids, kinds, "
                    "canonical forms, and absolute types.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_p = sub.add_parser(
        "run", help="parse a document and execute its commands"
    )
    run_p.add_argument("file", help="source file (UTF-8)")
    run_p.add_argument(
        "--box", type=_box_arg, default=None, metavar="R1,R2,...",
        help="window radii overriding per-command and per-file boxes",
    )
    run_p.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="seed for the deterministic pseudo-random searches",
    )
    run_p.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first failing command",
    )
    run_p.add_argument(
        "--json", default=None, metavar="OUT",
        help="write the JSON report to OUT ('-' for stdout)",
    )
    fmt_p = sub.add_parser("fmt", help="print the canonical formatting")
    fmt_p.add_argument("file", help="source file (UTF-8)")
    return parser


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
    print(f"loomalg: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _parse_or_report(source: str):
    result = parse(source)
    for diag in result.diagnostics:
        print(diag, file=sys.stderr)
    return result.document


def _cmd_run(args) -> int:
    source = _load(args.file)
    if source is None:
        return 2
    document = _parse_or_report(source)
    if document is None:
        return 2
    report = execute(
        document,
        box_override=args.box,
        seed=args.seed,
        fail_fast=args.fail_fast,
    )
    payload = report_json(report)
    if args.json == "-":
        sys.stdout.write(payload)
    else:
        if args.json:
            try:
                with open(args.json, "w", encoding="utf-8") as handle:
                    handle.write(payload)
            except OSError as exc:
                print(f"loomalg: cannot write {args.json}: {exc.strerror}",
                      file=sys.stderr)
                return 2
        sys.stdout.write(render_text(report))
    return 0 if report["ok"] else 1


def _cmd_fmt(args) -> int:
    source = _load(args.file)
    if source is None:
        return 2
    document = _parse_or_report(source)
    if document is None:
        return 2
    sys.stdout.write(format_document(document))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "run":
        return _cmd_run(args)
    return _cmd_fmt(args)


if __name__ == "__main__":
    sys.exit(main())

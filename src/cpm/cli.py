"""Command-line driver: compose a pipeline, transform a file, report.

The user picks the extensions and their order with repeated ``--ext`` flags;
nothing is reordered or inferred. Input convention is ``.cpm``, output
``.c``. Exit status is 0 on success and 1 on I/O or composition errors;
diagnostics are warnings at worst and never change the exit status.

The optional report file is line-oriented key/value records::

    extensions_pipeline=<joined ids>
    applied=<canonical id>              (one line per pass, in order)
    diagnostic=<severity>:<line>:<emitted_by>:<message>
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from .pipeline import (
    PassConfig,
    UnknownExtensionError,
    VersionMismatchError,
    builtin_registry,
    compose,
    run,
)
from .srcmodel import load_unit, render


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpm",
        description="Apply language-extension passes to a C-flavored source file.",
    )
    parser.add_argument("input", nargs="?", help="input file (conventionally .cpm)")
    parser.add_argument(
        "--ext",
        action="append",
        default=[],
        metavar="NAME[@VERSION]",
        help="extension to apply; repeat to chain, order is preserved",
    )
    parser.add_argument("-o", "--output", metavar="PATH", help="output file (default: input with .c suffix)")
    parser.add_argument("--config", metavar="PATH", help="INI config, one section per extension")
    parser.add_argument("--strict-tags", action="store_true", help="warn about unconsumed extension syntax and @ext: tags")
    parser.add_argument("--emit-report", metavar="PATH", help="write a machine-readable report")
    parser.add_argument("--list-extensions", action="store_true", help="list registered extensions and exit")
    return parser


def _fail(message: str) -> int:
    print(f"cpm: error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    registry = builtin_registry()

    if args.list_extensions:
        for p in registry.values():
            print(p.id.canonical())
        return 0

    if not args.input:
        return _fail("no input file given")
    in_path = Path(args.input)
    try:
        text = in_path.read_text(encoding="latin-1")
    except OSError as exc:
        return _fail(f"cannot read {in_path}: {exc}")

    if args.config:
        try:
            config = PassConfig.from_ini(args.config)
        except (OSError, ValueError, configparser.Error) as exc:
            return _fail(f"cannot load config {args.config}: {exc}")
    else:
        config = PassConfig()

    try:
        pipeline = compose(args.ext, registry=registry, config=config)
    except (UnknownExtensionError, VersionMismatchError) as exc:
        return _fail(str(exc))

    unit = load_unit(text)
    out_unit, report = run(pipeline, unit, strict=args.strict_tags)

    out_path = Path(args.output) if args.output else in_path.with_suffix(".c")
    if out_path.resolve() == in_path.resolve():
        hint = "" if args.output else "; use -o"
        return _fail(f"output path {out_path} would overwrite the input{hint}")
    try:
        out_path.write_text(render(out_unit), encoding="latin-1")
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}")

    for diag in report.diagnostics:
        print(f"cpm: {diag}", file=sys.stderr)

    if args.emit_report:
        lines = [f"extensions_pipeline={report.extensions_pipeline}"]
        lines += [f"applied={eid.canonical()}" for eid in report.applied_ids]
        lines += [
            f"diagnostic={d.severity}:{d.line_no}:{d.emitted_by}:{d.message}"
            for d in report.diagnostics
        ]
        try:
            Path(args.emit_report).write_text("\n".join(lines) + "\n", encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write report {args.emit_report}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: read the input, convert it, write it, report diagnostics.

Exit codes: 0 success (warnings allowed unless --strict), 1 conversion
error, 2 usage error.  Input and output are UTF-8 whatever the locale or
PYTHONIOENCODING, "-" (stdin or stdout) included, so "-" behaves like a file.
A text stream swapped in for stdin or stdout with no bytes layer under it
(an io.StringIO) is read or written as text.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnostics import Diagnostics
from .options import MODE_VML, MODE_XHTML, ConvertOptions
from .pipeline import convert_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svg2vml", description="Convert an SVG subset to VML/HTML for legacy IE."
    )
    subcommands = parser.add_subparsers(dest="command", required=True)
    convert = subcommands.add_parser("convert", help="convert one SVG document")
    convert.add_argument("input", help='input SVG file, or "-" for stdin')
    convert.add_argument("-o", "--output", help='output file, or "-" for stdout')
    convert.add_argument("--mode", choices=[MODE_VML, MODE_XHTML], default=MODE_VML)
    convert.add_argument("--precision", type=int, default=6, metavar="N", help="output decimals (0-12)")
    convert.add_argument("--strict", action="store_true", help="abort on any warning or error")
    convert.add_argument("--pretty", action="store_true", help="indent the output")
    convert.add_argument("--quiet", action="store_true", help="suppress warnings (never errors)")
    convert.add_argument("--title", help="document title for the emitted HTML")
    return parser


def _default_output(input_path: str, mode: str) -> str:
    suffix = ".html" if mode == MODE_VML else ".xhtml"
    return str(Path(input_path).with_suffix(suffix))


def _print_diagnostics(diagnostics: Diagnostics, quiet: bool) -> None:
    for diagnostic in diagnostics:
        if quiet and diagnostic.severity == "warning":
            continue
        print(diagnostic, file=sys.stderr)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)

    destination = args.output
    if destination is None:
        destination = "-" if args.input == "-" else _default_output(args.input, args.mode)
        if destination != "-" and Path(destination).resolve() == Path(args.input).resolve():
            print(f"usage error: the default output is the input file {args.input}; use -o", file=sys.stderr)
            return 2

    try:
        if args.input == "-":
            stdin = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
        else:
            text = Path(args.input).read_text(encoding="utf-8")
    except OSError as io_error:
        print(f"error IO_ERROR: {io_error}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as not_utf8:
        source = "stdin" if args.input == "-" else args.input
        print(f"error IO_ERROR: {source} is not UTF-8 text ({not_utf8})", file=sys.stderr)
        return 1

    try:
        options = ConvertOptions(
            mode=args.mode, precision=args.precision, strict=args.strict, pretty=args.pretty, title=args.title
        )
    except ValueError as bad_option:
        print(f"usage error: {bad_option}", file=sys.stderr)
        return 2

    output_text, diagnostics = convert_text(text, options)
    _print_diagnostics(diagnostics, args.quiet)
    if output_text is None:
        return 1

    try:
        if destination == "-":
            sys.stdout.flush()  # text printed before stays ahead of the bytes
            stdout = getattr(sys.stdout, "buffer", None)
            if stdout is None:
                sys.stdout.write(output_text)
            else:
                stdout.write(output_text.encode("utf-8"))
                stdout.flush()
        else:
            Path(destination).write_text(output_text, encoding="utf-8")
    except OSError as io_error:
        print(f"error IO_ERROR: {io_error}", file=sys.stderr)
        return 1
    return 1 if diagnostics.has_errors else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

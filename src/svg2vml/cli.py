"""Command-line front end: parse, map, emit, report diagnostics.

Exit codes: 0 success (warnings allowed unless --strict), 1 conversion
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .diagnostics import ConversionError, Diagnostics
from .emitter import emit_vml_html, emit_xhtml_passthrough
from .mappers import map_document
from .options import MODE_VML, MODE_XHTML, ConvertOptions
from .svg_dom import parse_svg


def convert_text(text: str, options: Optional[ConvertOptions] = None) -> tuple[Optional[str], Diagnostics]:
    """Run the full pipeline on SVG text; returns (output, diagnostics).

    Output is None when the conversion failed outright (unparseable input,
    or any diagnostic in strict mode).
    """
    options = options or ConvertOptions()
    diagnostics = Diagnostics(strict=options.strict)
    try:
        doc = parse_svg(text, diagnostics)
        if doc is None:
            return None, diagnostics
        if options.mode == MODE_XHTML:
            return emit_xhtml_passthrough(doc, options), diagnostics
        tree, _ = map_document(doc, options, diagnostics)
        return emit_vml_html(tree, options), diagnostics
    except ConversionError:
        return None, diagnostics


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


def run(argv: Optional[list[str]] = None) -> int:
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
            text = sys.stdin.read()
        else:
            text = Path(args.input).read_text(encoding="utf-8")
    except OSError as io_error:
        print(f"error IO_ERROR: {io_error}", file=sys.stderr)
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
            sys.stdout.write(output_text)
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

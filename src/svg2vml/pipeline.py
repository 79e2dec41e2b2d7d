"""The conversion pipeline: parse the SVG text, map it, emit the result."""

from __future__ import annotations

from .diagnostics import Diagnostics
from .emitter import emit_vml_html, emit_xhtml_passthrough
from .mappers import map_document
from .options import MODE_XHTML, ConvertOptions
from .svg_dom import parse_svg


def convert_text(text: str, options: ConvertOptions | None = None) -> tuple[str | None, Diagnostics]:
    """Run the full pipeline on SVG text; returns (output, diagnostics).

    Output is None when the conversion failed outright (unparseable input),
    or in strict mode when anything was reported.  The conversion runs to
    the end either way, so the diagnostics list every loss.
    """
    options = options or ConvertOptions()
    diagnostics = Diagnostics(strict=options.strict)
    doc = parse_svg(text, diagnostics)
    if doc is None:
        return None, diagnostics
    tree = None if options.mode == MODE_XHTML else map_document(doc, options, diagnostics)[0]
    if options.strict and len(diagnostics):
        return None, diagnostics
    if tree is None:
        return emit_xhtml_passthrough(doc, options), diagnostics
    return emit_vml_html(tree, options), diagnostics

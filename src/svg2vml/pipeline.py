"""The conversion pipeline: parse the SVG text, map it, emit the result."""

from __future__ import annotations

from typing import Optional

from .diagnostics import ConversionError, Diagnostics
from .emitter import emit_vml_html, emit_xhtml_passthrough
from .mappers import map_document
from .options import MODE_XHTML, ConvertOptions
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

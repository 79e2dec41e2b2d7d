"""svg2vml: batch transpiler from an SVG subset to VML/HTML for legacy IE."""

from .diagnostics import Diagnostic, Diagnostics
from .emitter import emit_vml_html, emit_xhtml_passthrough
from .mappers import VmlNode, map_document
from .options import ConvertOptions
from .pipeline import convert_text
from .svg_dom import (
    SvgDocument,
    SvgNode,
    parse_length,
    parse_points,
    parse_svg,
    parse_view_box,
)

__version__ = "0.1.0"

__all__ = [
    "ConvertOptions",
    "Diagnostic",
    "Diagnostics",
    "SvgDocument",
    "SvgNode",
    "VmlNode",
    "convert_text",
    "emit_vml_html",
    "emit_xhtml_passthrough",
    "map_document",
    "parse_length",
    "parse_points",
    "parse_svg",
    "parse_view_box",
]

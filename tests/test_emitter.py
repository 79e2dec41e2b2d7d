import re
import xml.etree.ElementTree as ET

import pytest

from conftest import structurally_equal, wrap_svg
from svg2vml.emitter import emit_vml_html, emit_xhtml_passthrough
from svg2vml.mappers import map_document
from svg2vml.options import ConvertOptions
from svg2vml.svg_dom import parse_svg

SOURCE = wrap_svg(
    '<defs><linearGradient id="lg"><stop offset="0%" stop-color="red"/>'
    '<stop offset="100%" stop-color="blue"/></linearGradient></defs>'
    '<g fill="url(#lg)"><rect x="1.5" y="2" width="30" height="40" rx="3"/></g>'
    '<text x="5" y="30" font-size="12">label &amp; more</text>'
    '<a xlink:href="http://example.com/?a=1&amp;b=2"><circle cx="4" cy="4" r="2"/></a>'
)


def emit(source=SOURCE, **option_kwargs):
    options = ConvertOptions(**option_kwargs)
    doc = parse_svg(source)
    tree, _ = map_document(doc, options)
    return emit_vml_html(tree, options)


def strip_structure(element):
    """Reparse oracle view: tag, attributes, stripped text, children."""
    return (
        element.tag,
        sorted(element.attrib.items()),
        (element.text or "").strip(),
        [strip_structure(child) for child in element],
    )


class TestEmitVmlHtml:
    def test_document_structure(self):
        text = emit(pretty=True)
        assert text.startswith('<html xmlns:v="urn:schemas-microsoft-com:vml">')
        assert "behavior: url(#default#VML)" in text
        assert "<v:group" in text and "coordsize=\"800,800\"" in text

    def test_round_trips_through_an_xml_parser(self):
        for pretty in (False, True):
            root = ET.fromstring(emit(pretty=pretty))
            assert root.tag == "html"

    def test_empty_tree_is_valid_document(self):
        text = emit("<svg/>")
        root = ET.fromstring(text)
        assert root.find("body") is not None

    def test_pretty_and_compact_have_the_same_token_stream(self):
        compact = ET.fromstring(emit(pretty=False))
        pretty = ET.fromstring(emit(pretty=True))
        assert strip_structure(compact) == strip_structure(pretty)

    def test_payloads_and_attributes_are_escaped(self):
        text = emit()
        assert "label &amp; more" in text
        assert "a=1&amp;b=2" in text

    def test_no_exponent_notation(self):
        text = emit(
            wrap_svg('<rect x="0.0000001" y="1234567.25" width="5" height="5"/>'),
        )
        assert not re.search(r"\d[eE][+-]?\d", text)

    def test_precision_is_honored(self):
        source = wrap_svg('<circle cx="1" cy="1" r="0.123456789"/>')
        assert "0.246914" in emit(source, precision=6)
        assert "0.25" in emit(source, precision=2)

    def test_deterministic(self):
        assert emit() == emit()

    def test_title_option(self):
        assert "<title>My Chart</title>" in emit(title="My Chart")


class TestEmitXhtmlPassthrough:
    def test_example_shape(self):
        doc = parse_svg(SOURCE)
        text = emit_xhtml_passthrough(doc, ConvertOptions(pretty=True))
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert '<html xmlns="http://www.w3.org/1999/xhtml">' in text
        assert "<svg:svg" in text
        assert "v:" not in text.replace("xmlns:v", "")  # no VML anywhere

    def test_empty_svg(self):
        doc = parse_svg("<svg/>")
        text = emit_xhtml_passthrough(doc)
        assert "<svg:svg" in text
        ET.fromstring(text)

    @pytest.mark.parametrize("pretty", [False, True])
    def test_round_trip_is_structurally_equal(self, pretty):
        doc = parse_svg(SOURCE)
        text = emit_xhtml_passthrough(doc, ConvertOptions(pretty=pretty))
        reparsed = parse_svg(text)
        assert reparsed is not None
        assert structurally_equal(doc.root, reparsed.root)

    def test_round_trip_preserves_unknown_elements(self):
        doc = parse_svg("<svg><desc>meta</desc><rect width='1' height='1'/></svg>")
        reparsed = parse_svg(emit_xhtml_passthrough(doc))
        assert structurally_equal(doc.root, reparsed.root)

    def test_round_trip_preserves_foreign_content(self):
        doc = parse_svg(
            "<svg><foreignObject><div class='x'>Hello <b>bold</b> tail</div></foreignObject></svg>"
        )
        reparsed = parse_svg(emit_xhtml_passthrough(doc))
        assert structurally_equal(doc.root, reparsed.root)

    def test_deterministic(self):
        doc = parse_svg(SOURCE)
        assert emit_xhtml_passthrough(doc) == emit_xhtml_passthrough(parse_svg(SOURCE))

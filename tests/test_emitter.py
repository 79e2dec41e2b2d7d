import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import structurally_equal, wrap_svg
from svg2vml import convert_text
from svg2vml.diagnostics import Diagnostics
from svg2vml.emitter import VML_NS, emit_vml_html, emit_xhtml_passthrough
from svg2vml.mappers import VmlNode, map_document
from svg2vml.options import ConvertOptions
from svg2vml.svg_dom import IMPLEMENTED_TAGS, SVG_NS, XLINK_NS, SvgDocument, SvgNode, parse_svg

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


def convert(body, mode, pretty=False):
    options = ConvertOptions(mode=mode, pretty=pretty)
    output, _ = convert_text(wrap_svg(body), options)
    return output


def source(value):
    """value written for an apostrophe-quoted attribute or for text."""
    return value.replace("&", "&amp;").replace("<", "&lt;")


MODES = pytest.mark.parametrize("mode", ["vml", "xhtml"])
PRETTY = pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])

# (value, as written inside a double-quoted attribute, as written in text)
SPECIALS = [
    pytest.param("&", "&amp;", "&amp;", id="amp"),
    pytest.param("<", "&lt;", "&lt;", id="lt"),
    pytest.param(">", "&gt;", "&gt;", id="gt"),
    pytest.param('"', "&quot;", '"', id="quot"),
    pytest.param('a&b<c>d"e', "a&amp;b&lt;c&gt;d&quot;e", 'a&amp;b&lt;c&gt;d"e', id="mixed"),
    pytest.param('"<&>"', "&quot;&lt;&amp;&gt;&quot;", '"&lt;&amp;&gt;"', id="all-adjacent"),
    pytest.param("x & y", "x &amp; y", "x &amp; y", id="amp-in-words"),
]


class TestEscaping:
    """Each special character, alone and mixed, in every place a value is written."""

    @MODES
    @PRETTY
    @pytest.mark.parametrize("value,in_attribute,in_text", SPECIALS)
    def test_attribute_value(self, mode, pretty, value, in_attribute, in_text):
        output = convert(f"<rect id='{source(value)}' width='1' height='1'/>", mode, pretty)
        assert f' id="{in_attribute}"' in output
        assert [el.get("id") for el in ET.fromstring(output).iter() if el.get("id") is not None] == [value]

    @MODES
    @PRETTY
    @pytest.mark.parametrize("value,in_attribute,in_text", SPECIALS)
    def test_attribute_value_in_an_inlined_subtree(self, mode, pretty, value, in_attribute, in_text):
        body = f"<foreignObject width='9' height='9'><div title='{source(value)}'>x</div></foreignObject>"
        output = convert(body, mode, pretty)
        assert f'<div title="{in_attribute}">x</div>' in output
        (div,) = [el for el in ET.fromstring(output).iter() if el.tag.endswith("div") and el.get("title")]
        assert div.get("title") == value

    @MODES
    @PRETTY
    @pytest.mark.parametrize("value,in_attribute,in_text", SPECIALS)
    def test_style_value(self, mode, pretty, value, in_attribute, in_text):
        body = (
            '<defs><path id="p" d="M 0 0 L 5 5"/></defs>'
            f"<text font-size='8' font-family='{source(value)}'><textPath xlink:href='#p'>t</textPath></text>"
        )
        output = convert(body, mode, pretty)
        if mode == "vml":
            assert f' style="FONT-SIZE:8;FONT-FAMILY:{in_attribute}"' in output
        else:
            assert f' font-family="{in_attribute}"' in output

    @MODES
    @PRETTY
    @pytest.mark.parametrize("value,in_attribute,in_text", SPECIALS)
    def test_text_and_tail_in_an_inlined_subtree(self, mode, pretty, value, in_attribute, in_text):
        body = f"<foreignObject width='9' height='9'><div>{source(value)}<b>x</b>{source(value)}</div></foreignObject>"
        output = convert(body, mode, pretty)
        assert f"<div>{in_text}<b>x</b>{in_text}</div>" in output
        (div,) = [el for el in ET.fromstring(output).iter() if el.tag.endswith("div") and el.text]
        assert (div.text, div[0].tail) == (value, value)


# The serializer as it was before the escapers checked for special
# characters: every value goes through every replace.
def reference_escape_text(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def reference_escape_attr(value):
    return reference_escape_text(value).replace('"', "&quot;")


def reference_attributes_text(attributes):
    return "".join(f' {n}="{reference_escape_attr(v)}"' for n, v in attributes.items())


def reference_vml_head(node):
    attrs = reference_attributes_text(node.attributes)
    if node.style:
        attrs += f' style="{reference_escape_attr("".join(f"{n}:{v};" for n, v in node.style.items()))}"'
    return (node.tag[5:] if node.tag.startswith("html:") else node.tag), attrs


def reference_svg_head(node):
    name = f"svg:{node.name}" if node.tag in IMPLEMENTED_TAGS else node.name
    return name, reference_attributes_text(node.attributes)


def reference_serialize(node, head, lines, depth, pretty, extra=""):
    pad = "  " * depth if pretty else ""
    name, attrs = head(node)
    has_text = bool(node.text and node.text.strip())
    if not node.children and not has_text:
        lines.append(f"{pad}<{name}{extra}{attrs}/>")
        return
    if has_text or any(child.tail and child.tail.strip() for child in node.children):
        lines.append(pad + reference_inline(node, head, extra))
        return
    lines.append(f"{pad}<{name}{extra}{attrs}>")
    for child in node.children:
        reference_serialize(child, head, lines, depth + 1, pretty)
    lines.append(f"{pad}</{name}>")


def reference_inline(node, head, extra=""):
    name, attrs = head(node)
    if not node.children and not (node.text and node.text.strip()):
        return f"<{name}{extra}{attrs}/>"
    inner = reference_escape_text(node.text) if node.text else ""
    for child in node.children:
        inner += reference_inline(child, head)
        if child.tail:
            inner += reference_escape_text(child.tail)
    return f"<{name}{extra}{attrs}>{inner}</{name}>"


def reference_document(opening, title, head_extra, root, head, extra, pretty):
    pad = "  " if pretty else ""
    lines = [
        opening,
        f"{pad}<head>",
        f'{pad}{pad}<meta http-equiv="Content-Type" content="text/html; charset=utf-8"/>',
        f"{pad}{pad}<title>{reference_escape_text(title)}</title>",
        *(f"{pad}{pad}{line}" for line in head_extra),
        f"{pad}</head>",
        f"{pad}<body>",
    ]
    reference_serialize(root, head, lines, 2 if pretty else 0, pretty, extra)
    lines += [f"{pad}</body>", "</html>"]
    return ("\n" if pretty else "").join(lines) + "\n"


# Strings over the characters the escapers replace, the apostrophe they
# leave, white space and a few plain letters.
payloads = st.text(alphabet="&<>\"' \t\nab", max_size=8)
maybe_payloads = st.none() | payloads
attribute_tables = st.dictionaries(st.sampled_from(["id", "title", "href", "x"]), payloads, max_size=3)


def vml_trees():
    leaf = st.builds(
        VmlNode,
        st.sampled_from(["v:shape", "v:textbox", "html:div", "b"]),
        attribute_tables,
        st.dictionaries(st.sampled_from(["left", "font-family"]), payloads, max_size=2),
        st.just(None),
        maybe_payloads,
        maybe_payloads,
    )
    return st.recursive(
        leaf,
        lambda children: st.builds(
            lambda node, kids: VmlNode(node.tag, node.attributes, node.style, kids, node.text, node.tail),
            leaf,
            st.lists(children, max_size=3),
        ),
        max_leaves=12,
    )


def svg_trees():
    def node(name, attributes, children, text, tail):
        return SvgNode(name if name in IMPLEMENTED_TAGS else "unknown", name, attributes, children, text, tail)

    names = st.sampled_from(["svg", "g", "rect", "text", "div", "b"])
    leaf = st.builds(node, names, attribute_tables, st.just([]), maybe_payloads, maybe_payloads)
    return st.recursive(
        leaf,
        lambda children: st.builds(node, names, attribute_tables, st.lists(children, max_size=3),
                                   maybe_payloads, maybe_payloads),
        max_leaves=12,
    )


class TestEscapingProperty:
    @settings(max_examples=300, deadline=None)
    @given(vml_trees(), payloads, st.booleans())
    def test_vml_matches_the_reference_serializer(self, tree, title, pretty):
        expected = reference_document(
            f'<html xmlns:v="{VML_NS}">', title or "Converted SVG",
            ("<style>v\\:* { behavior: url(#default#VML); }</style>",), tree, reference_vml_head, "", pretty,
        )
        assert emit_vml_html(tree, ConvertOptions(pretty=pretty, title=title or None)) == expected

    @settings(max_examples=300, deadline=None)
    @given(svg_trees(), payloads, st.booleans())
    def test_svg_matches_the_reference_serializer(self, root, title, pretty):
        expected = reference_document(
            '<?xml version="1.0" encoding="UTF-8"?>\n<html xmlns="http://www.w3.org/1999/xhtml">',
            title or "SVG Document", (), root, reference_svg_head,
            f' xmlns:svg="{SVG_NS}" xmlns:xlink="{XLINK_NS}"', pretty,
        )
        doc = SvgDocument(root, {}, Diagnostics(), 0)
        assert emit_xhtml_passthrough(doc, ConvertOptions(pretty=pretty, title=title or None)) == expected

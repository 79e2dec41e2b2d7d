import ast
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import structurally_equal, wrap_svg
import svg2vml
from svg2vml import convert_text
from svg2vml.diagnostics import Diagnostics
from svg2vml.emitter import VML_NS, emit_vml_html, emit_xhtml_passthrough, vml_leaf
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


def _local(element):
    return element.tag.rpartition("}")[2]


class TestWhiteSpaceOnlyText:
    """An element with no children keeps text that is only white space, in both modes."""

    @MODES
    @PRETTY
    def test_in_foreign_content(self, mode, pretty):
        body = "<foreignObject width='9' height='9'><div>a<b> </b>c</div></foreignObject>"
        output, diagnostics = convert_text(wrap_svg(body), ConvertOptions(mode=mode, pretty=pretty, strict=True))
        assert "<div>a<b> </b>c</div>" in output
        (b,) = [el for el in ET.fromstring(output).iter() if _local(el) == "b"]
        assert (b.text, b.tail) == (" ", "c")

    @PRETTY
    @pytest.mark.parametrize("text", ["  ", "\n", " \t "])
    def test_preserved_text_passes_through(self, pretty, text):
        body = f'<text xml:space="preserve" x="1" y="9" font-size="8">{text}</text>'
        output, _ = convert_text(wrap_svg(body), ConvertOptions(mode="xhtml", pretty=pretty, strict=True))
        assert f'<svg:text xml:space="preserve" x="1" y="9" font-size="8">{text}</svg:text>' in output
        (element,) = [el for el in ET.fromstring(output).iter() if _local(el) == "text"]
        assert element.text == text

    @PRETTY
    def test_vml_text_is_still_stripped(self, pretty):
        body = '<text xml:space="preserve" x="1" y="9" font-size="8">  </text>'
        output, _ = convert_text(wrap_svg(body), ConvertOptions(pretty=pretty, strict=True))
        assert '<v:textbox style="left:1;top:1;"/>' in output

    @MODES
    @PRETTY
    @pytest.mark.parametrize(
        "content",
        ["<div><b>a</b> <i>b</i></div>", "<b>a</b> <i>b</i>", "<div><p>x</p>\n  </div>"],
        ids=["between-children", "in-the-foreign-object", "after-the-last-child"],
    )
    def test_a_tail_in_foreign_content(self, mode, pretty, content):
        body = f"<foreignObject width='9' height='9'>{content}</foreignObject>"
        output, diagnostics = convert_text(wrap_svg(body), ConvertOptions(mode=mode, pretty=pretty, strict=True))
        assert content in output

    def test_an_empty_element_still_closes_itself(self):
        output = convert("<foreignObject width='9' height='9'><div>a<b></b>c</div></foreignObject>", "xhtml")
        assert "<div>a<b/>c</div>" in output


def convert_strict(content, mode, pretty):
    """The output for a foreignObject holding content, and the first reparsed element of each name."""
    body = f"<foreignObject width='9' height='9'>{content}</foreignObject>"
    output, diagnostics = convert_text(wrap_svg(body), ConvertOptions(mode=mode, pretty=pretty, strict=True))
    elements = {}
    for element in ET.fromstring(output).iter():
        elements.setdefault(_local(element), element)
    return output, elements


class TestForeignContentAsParsed:
    """foreignObject content is written as it was parsed, on one line, in both modes."""

    # The element that holds the content in each mode's output.
    HOST = {"vml": "textbox", "xhtml": "foreignObject"}

    @MODES
    @PRETTY
    @pytest.mark.parametrize(
        "content,holder,text",
        [("<p> <b>a</b></p>", "p", " "), ("<div>\n  <p>x</p></div>", "div", "\n  "),
         ("<p>\t<b>a</b><i>b</i></p>", "p", "\t"), (" <b>a</b>", None, " ")],
        ids=["space", "newline-and-indent", "tab-before-adjacent-elements", "in-the-foreign-object"],
    )
    def test_white_space_before_a_first_child_is_kept(self, mode, pretty, content, holder, text):
        output, elements = convert_strict(content, mode, pretty)
        assert content in output
        assert elements[holder or self.HOST[mode]].text == text

    @MODES
    @pytest.mark.parametrize(
        "content,first",
        [("<b>a</b><i>b</i>", "b"), ("<div><b>a</b><i>b</i></div>", "b"), ("<div><p>one</p><p>two</p></div>", "p")],
        ids=["in-the-foreign-object", "inline-elements", "block-elements"],
    )
    def test_adjacent_elements_stay_adjacent_under_pretty(self, mode, content, first):
        output, elements = convert_strict(content, mode, True)
        assert content in output
        assert elements[first].tail is None


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
    return node.tag, attrs


def reference_svg_head(node):
    name = f"svg:{node.name}" if node.tag in IMPLEMENTED_TAGS else node.name
    return name, reference_attributes_text(node.attributes)


HTML_HOSTS = ("v:textbox", "svg:foreignObject")
# Pretty output writes these on one line: white space in an SVG text is rendered.
ONE_LINE = (*HTML_HOSTS, "svg:text")


def reference_serialize(node, head, lines, depth, extra=""):
    pad = "  " * depth
    name, attrs = head(node)
    has_text = bool(node.text and node.text.strip())
    if not node.children and not node.text:
        lines.append(f"{pad}<{name}{extra}{attrs}/>")
        return
    # A foreignObject's content is HTML, and white space in a text renders: both are written as parsed.
    if name in ONE_LINE or has_text or not node.children or any(
        child.tail and child.tail.strip() for child in node.children
    ):
        lines.append(pad + reference_inline(node, head, extra))
        return
    lines.append(f"{pad}<{name}{extra}{attrs}>")
    for child in node.children:
        reference_serialize(child, head, lines, depth + 1)
    lines.append(f"{pad}</{name}>")


def reference_inline(node, head, extra=""):
    name, attrs = head(node)
    if not node.children and not node.text:
        return f"<{name}{extra}{attrs}/>"
    inner = reference_escape_text(node.text) if node.text else ""
    # The parsed content of a foreignObject, in both modes.
    child_head = reference_svg_head if name in HTML_HOSTS else head
    for child in node.children:
        inner += reference_inline(child, child_head)
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
    # A compact body is the root written inline; pretty output lays it out a line per element.
    if pretty:
        reference_serialize(root, head, lines, 2, extra)
    else:
        lines.append(reference_inline(root, head, extra))
    lines += [f"{pad}</body>", "</html>"]
    return ("\n" if pretty else "").join(lines) + "\n"


# Strings over the characters the escapers replace, the apostrophe they
# leave, white space and a few plain letters.
payloads = st.text(alphabet="&<>\"' \t\nab", max_size=8)
maybe_payloads = st.none() | payloads
attribute_tables = st.dictionaries(st.sampled_from(["id", "title", "href", "x"]), payloads, max_size=3)


def svg_trees(names=("svg", "g", "rect", "text", "foreignObject", "div", "b"), foreign=False):
    """Parsed trees; in foreign content, as inside a foreignObject, every element is unknown."""
    def node(name, attributes, children, text, tail):
        tag = name if name in IMPLEMENTED_TAGS and not foreign else "unknown"
        return SvgNode(tag, name, attributes, children, text, tail)

    names = st.sampled_from(names)
    leaf = st.builds(node, names, attribute_tables, st.just([]), maybe_payloads, maybe_payloads)
    return st.recursive(
        leaf,
        lambda children: st.builds(node, names, attribute_tables, st.lists(children, max_size=3),
                                   maybe_payloads, maybe_payloads),
        max_leaves=12,
    )


LEAF_TAGS = ("v:fill", "v:stroke", "v:skew")


def vml_trees():
    """Mapped trees whose nodes outside a v:textbox may lead with childless leaf
    children, as the reference serializer reads them; `written` turns them
    into leaves as the mappers write them."""
    leaf_children = st.lists(st.builds(VmlNode, st.sampled_from(LEAF_TAGS), attribute_tables), max_size=2)

    def node(tag):
        return st.builds(VmlNode, st.just(tag), attribute_tables,
                         st.dictionaries(st.sampled_from(["left", "font-family"]), payloads, max_size=2),
                         st.just([]) if tag == "v:textbox" else leaf_children, maybe_payloads, maybe_payloads)

    leaf = st.sampled_from(["v:shape", "div", "b"]).flatmap(node)
    # A v:textbox holds the parsed content of a foreignObject.
    textbox = st.builds(
        lambda box, content: VmlNode(box.tag, box.attributes, box.style, content, box.text, box.tail),
        node("v:textbox"),
        st.lists(svg_trees(("div", "b", "rect", "foreignObject"), foreign=True), max_size=3),
    )
    return st.recursive(
        leaf | textbox,
        lambda children: st.builds(
            lambda parent, kids: VmlNode(parent.tag, parent.attributes, parent.style, parent.children + kids,
                                         parent.text, parent.tail),
            leaf,
            st.lists(children, max_size=3),
        ),
        max_leaves=12,
    )


def written(node):
    """node with its leaf children written into leaves by vml_leaf, as the mappers write them."""
    if not isinstance(node, VmlNode):
        return node
    leaves = [vml_leaf(child.tag, child.attributes.items()) for child in node.children if child.tag in LEAF_TAGS]
    children = [written(child) for child in node.children if child.tag not in LEAF_TAGS]
    return VmlNode(node.tag, node.attributes, node.style, children, node.text, node.tail, leaves)


class TestEscapingProperty:
    @settings(max_examples=300, deadline=None)
    @given(vml_trees(), payloads, st.booleans())
    def test_vml_matches_the_reference_serializer(self, tree, title, pretty):
        expected = reference_document(
            f'<html xmlns:v="{VML_NS}">', title or "Converted SVG",
            ("<style>v\\:* { behavior: url(#default#VML); }</style>",), tree, reference_vml_head, "", pretty,
        )
        assert emit_vml_html(written(tree), ConvertOptions(pretty=pretty, title=title or None)) == expected

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


class TestLeaves:
    """A mapped shape's childless children are written as markup when they are
    mapped; the serializer writes them ahead of its children, in both routes.
    The expected documents were captured from the serializer that wrote these
    children as nodes; since then, the text on a path's shape carries its
    text's id, here none, in place of its path's."""

    SOURCE = wrap_svg(
        '<defs><path id="track" d="M 0 0 L 10 0"/></defs>'
        '<a href="#x">go <rect x="1" y="2" width="3" height="4" fill="red" stroke="blue" transform="scale(2)"/></a>'
        '<a href="#y" stroke="navy">on <text font-size="9"><textPath xlink:href="#track">a&amp;b&lt;&quot;\'</textPath>'
        "</text></a>"
    )
    ANCHORS = (
        '<a href="#x">go<v:roundrect style="left:1;top:2;width:3;height:4;"><v:fill color="red"/>'
        '<v:stroke color="blue"/><v:skew on="t" matrix="-2, 0, 0, -2, 0, 0" offset="-6px,-8px"/></v:roundrect></a>',
        '<a href="#y">on<v:shape path="m 0,0 l 10,0 e"><v:stroke color="navy"/><v:path textpathok="t"/>'
        '<v:textpath on="t" string="a&amp;b&lt;&quot;\'" style="FONT-SIZE:9"/></v:shape></a>',
    )
    COMPACT = (
        '<html xmlns:v="urn:schemas-microsoft-com:vml"><head>'
        '<meta http-equiv="Content-Type" content="text/html; charset=utf-8"/><title>Converted SVG</title>'
        "<style>v\\:* { behavior: url(#default#VML); }</style></head><body>"
        '<v:group coordorigin="0,0" coordsize="800,800" style="width:800;height:800;">'
        '<div style="visibility:hidden;"><v:shape id="track" path="m 0,0 l 10,0 e"/></div>'
        f"{ANCHORS[0]}{ANCHORS[1]}"
        "</v:group></body></html>\n"
    )
    PRETTY = (
        '<html xmlns:v="urn:schemas-microsoft-com:vml">\n'
        "  <head>\n"
        '    <meta http-equiv="Content-Type" content="text/html; charset=utf-8"/>\n'
        "    <title>Converted SVG</title>\n"
        "    <style>v\\:* { behavior: url(#default#VML); }</style>\n"
        "  </head>\n"
        "  <body>\n"
        '    <v:group coordorigin="0,0" coordsize="800,800" style="width:800;height:800;">\n'
        '      <div style="visibility:hidden;">\n'
        '        <v:shape id="track" path="m 0,0 l 10,0 e"/>\n'
        "      </div>\n"
        f"      {ANCHORS[0]}\n"
        f"      {ANCHORS[1]}\n"
        "    </v:group>\n"
        "  </body>\n"
        "</html>\n"
    )

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    def test_an_anchor_with_text_writes_its_shapes_leaves_inline(self, pretty):
        output, diagnostics = convert_text(self.SOURCE, ConvertOptions(pretty=pretty))
        assert not len(diagnostics)
        assert output == (self.PRETTY if pretty else self.COMPACT)

    def test_pretty_output_gives_each_leaf_a_line_of_its_own(self):
        output, _ = convert_text(wrap_svg('<rect width="3" height="4" stroke="blue" fill="red"/>'),
                                 ConvertOptions(pretty=True))
        assert (
            '    <v:group coordorigin="0,0" coordsize="800,800" style="width:800;height:800;">\n'
            '      <v:roundrect style="width:3;height:4;">\n'
            '        <v:stroke color="blue"/>\n'
            '        <v:fill color="red"/>\n'
            "      </v:roundrect>\n"
            "    </v:group>\n"
        ) in output


def unshared(node):
    """The mapped tree rebuilt with a fresh VmlNode at each place, so that no node appears twice."""
    if not isinstance(node, VmlNode):
        return node  # a foreignObject's parsed content
    children = [unshared(child) for child in node.children]
    return VmlNode(node.tag, dict(node.attributes), dict(node.style), children, node.text, node.tail,
                   list(node.leaves))


class TestSharedCopies:
    """A use copy appears in the mapped tree once per use.  Either layout writes it
    as the unshared tree; pretty output writes each one at a depth once, and
    copies those lines where the copy comes back there."""

    SOURCE = wrap_svg(
        '<defs><g id="s"><rect width="2" height="2" fill="red"/><g><circle r="1" stroke="blue"/></g></g></defs>'
        '<use xlink:href="#s"/><g><use xlink:href="#s"/></g><use xlink:href="#s"/>'
        '<a href="#x">go <use xlink:href="#s"/></a>'
    )

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    def test_a_copy_shared_at_two_depths_writes_as_the_unshared_tree_does(self, pretty, monkeypatch):
        tree, diagnostics = map_document(parse_svg(self.SOURCE))
        assert not len(diagnostics)
        shared = tree.children[0].children[0]
        # the defs child at the use's depth, reused under a use one level deeper
        assert tree.children[1].children[0] is shared is tree.children[2].children[0].children[0]
        heads = []
        head = svg2vml.emitter._vml_head
        monkeypatch.setattr(svg2vml.emitter, "_vml_head", lambda node: heads.append(node) or head(node))
        options = ConvertOptions(pretty=pretty)
        output = emit_vml_html(tree, options)
        written = len(heads)
        assert output == emit_vml_html(unshared(tree), options)
        if pretty:
            assert written < len(heads) - written


SRC = Path(svg2vml.__file__).resolve().parent


def test_the_mappers_write_no_markup():
    """Markup is the emitter's: the mappers hand it tags and attribute values."""
    tree = ast.parse((SRC / "mappers.py").read_text(encoding="utf-8"))
    markup = [
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and (re.search(r"</?[A-Za-z]", node.value) or "/>" in node.value)
    ]
    assert markup == []


def test_the_emitter_does_not_import_the_mappers_at_run_time():
    """mappers imports vml_leaf from the emitter; the emitter names VmlNode in annotations only."""
    tree = ast.parse((SRC / "emitter.py").read_text(encoding="utf-8"))
    type_only = {
        id(node) for block in tree.body
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and id(node) not in type_only]
    assert [node.module for node in imports if node.module and node.module.split(".")[-1] == "mappers"] == []
    flags = [node.value for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(target, ast.Name) and target.id == "TYPE_CHECKING" for target in node.targets)]
    assert all(isinstance(flag, ast.Constant) and flag.value is False for flag in flags)

import gc
import math
import re
import sys
from pathlib import Path
from xml.parsers import expat

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import iter_nodes, structurally_equal

from svg2vml import ConvertOptions, convert_text, svg_dom
from svg2vml.diagnostics import Diagnostics
from svg2vml.numeric import NUMBER_PATTERN
from svg2vml.svg_dom import (
    MAX_DEPTH,
    XLINK_NS,
    parse_length,
    parse_points,
    parse_svg,
    parse_view_box,
)

XHTML_DEMO = """\
<html xmlns="http://www.w3.org/1999/xhtml">
  <head>
    <meta http-equiv="Content-Type" content="text/html; charset=utf-8"/>
    <title>Example of SVG</title>
  </head>
  <body>
    <svg:svg xmlns:svg="http://www.w3.org/2000/svg"
      viewBox="0 0 800 800" width="800" height="800">
      <svg:rect x="1" y="1" width="1198" height="398"
        fill="red" stroke="blue" stroke-width="2" />
    </svg:svg>
  </body>
</html>
"""


class TestParseSvg:
    def test_xhtml_document_with_inline_svg(self):
        doc = parse_svg(XHTML_DEMO)
        assert doc.root.tag == "svg"
        assert len(doc.root.children) == 1
        rect = doc.root.children[0]
        assert rect.tag == "rect"
        assert list(rect.attributes) == ["x", "y", "width", "height", "fill", "stroke", "stroke-width"]
        assert not doc.diagnostics.has_errors

    def test_minimal_document(self):
        doc = parse_svg("<svg/>")
        assert doc.root.tag == "svg"
        assert doc.root.children == []

    def test_reference_example_indexes_ids(self):
        doc = parse_svg(
            """<svg:svg viewBox="0 0 1000 1500" width="1000px" height="1500px"
                 xmlns:svg="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink">
                 <svg:defs>
                   <svg:rect id="MyRect" x="100" y="200" width="600" height="200"
                     fill="blue" stroke="red"/>
                 </svg:defs>
                 <svg:use xlink:href="#MyRect"/>
               </svg:svg>"""
        )
        assert [child.tag for child in doc.root.children] == ["defs", "use"]
        assert "MyRect" in doc.id_index
        assert doc.id_index["MyRect"].tag == "rect"
        assert doc.root.children[1].attributes.get("xlink:href") == "#MyRect"

    def test_undeclared_prefixes_are_tolerated(self):
        doc = parse_svg('<svg:svg viewBox="0 0 10 10"><svg:rect width="1" height="1"/></svg:svg>')
        assert doc.root.tag == "svg"
        assert doc.root.children[0].tag == "rect"

    def test_unknown_element_warns_and_is_preserved(self):
        doc = parse_svg("<svg><desc>hi</desc></svg>")
        assert doc.root.children[0].tag == "unknown"
        assert doc.root.children[0].name == "desc"
        assert "UNKNOWN_ELEMENT" in doc.diagnostics.codes()

    def test_malformed_xml_is_an_error(self):
        diags = Diagnostics()
        assert parse_svg("<svg><rect</svg>", diags) is None
        assert "MALFORMED_XML" in diags.codes()

    def test_malformed_xml_aborts_in_strict_mode(self):
        diags = Diagnostics(strict=True)
        assert parse_svg("<svg><rect</svg>", diags) is None
        assert [(d.severity, d.code) for d in diags] == [("error", "MALFORMED_XML")]

    def test_no_svg_root_is_an_error(self):
        diags = Diagnostics()
        assert parse_svg("<html><body/></html>", diags) is None
        assert "NO_SVG_ROOT" in diags.codes()

    def test_duplicate_id_first_wins(self):
        doc = parse_svg('<svg><rect id="a" x="1"/><rect id="a" x="2"/></svg>')
        assert doc.id_index["a"].attributes.get("x") == "1"
        assert "DUPLICATE_ID" in doc.diagnostics.codes()

    def test_each_duplicate_id_is_reported_at_the_element_that_lost(self):
        doc = parse_svg(
            '<svg><rect id="a" width="1"/><rect id="a" width="2"/>'
            '<g><circle id="a" r="1"/><foreignObject><p id="a"/></foreignObject></g></svg>'
        )
        assert [str(d) for d in doc.diagnostics] == [
            f"warning DUPLICATE_ID: duplicate id 'a'; first occurrence wins @{location}"
            for location in ("svg/rect[1]", "svg/g[2]/circle[0]", "svg/g[2]/foreignObject[1]/p[0]")
        ]

    def test_id_index_points_back_at_nodes(self):
        doc = parse_svg(
            '<svg id="root"><g id="grp"><circle id="c" r="5"/></g><defs id="d"/></svg>'
        )
        for node in iter_nodes(doc.root):
            node_id = node.attributes.get("id")
            if node_id is not None:
                assert doc.id_index[node_id] is node

    def test_foreign_content_does_not_warn(self):
        doc = parse_svg(
            "<svg><foreignObject><div><input/></div></foreignObject></svg>"
        )
        assert doc.diagnostics.codes() == []
        div = doc.root.children[0].children[0]
        assert div.name == "div"
        assert div.tag == "unknown"


def shape(node):
    """A parsed node as nested tuples: tag, name, attributes, text, tail, children."""
    return (
        node.tag,
        node.name,
        list(node.attributes.items()),
        node.text,
        node.tail,
        [shape(child) for child in node.children],
    )


FRAGMENTS = (
    pytest.param(
        '<rect id="a"/><svg viewBox="0 0 1 1"><circle id="a" r="1"/>x<blink/></svg> tail <svg id="second"/>',
        (
            "svg", "svg", [("viewBox", "0 0 1 1")], None, " tail ",
            [
                ("circle", "circle", [("id", "a"), ("r", "1")], None, "x", []),
                ("unknown", "blink", [], None, None, []),
            ],
        ),
        ["warning UNKNOWN_ELEMENT: unsupported element <blink> @svg/blink[1]"],
        id="several-top-level",
    ),
    pytest.param(
        '<?xml version="1.0"?>\n<desc>first</desc>\n<svg><g id="g"><rect/></g></svg>',
        ("svg", "svg", [], None, None, [("g", "g", [("id", "g")], None, None, [("rect", "rect", [], None, None, [])])]),
        [],
        id="sibling-before-svg",
    ),
    pytest.param(
        '<svg:svg><svg:use xlink:href="#a" foo:x="1" foo:width="2"/>'
        '<svg:rect id="a" foo:width="3" svg:height="4"/></svg:svg>',
        (
            "svg", "svg", [], None, None,
            [
                ("use", "use", [("xlink:href", "#a"), ("x", "1"), ("width", "2")], None, None, []),
                ("rect", "rect", [("id", "a"), ("width", "3"), ("height", "4")], None, None, []),
            ],
        ),
        [],
        id="undeclared-prefixes",
    ),
    pytest.param(
        '<svg xmlns:xlink="urn:other"><use xlink:href="#a"/><rect id="a"/></svg>',
        (
            "svg", "svg", [], None, None,
            [("use", "use", [("href", "#a")], None, None, []), ("rect", "rect", [("id", "a")], None, None, [])],
        ),
        [],
        id="xlink-bound-elsewhere",
    ),
    pytest.param(
        '<svg xmlns:xlink="urn:other"><use xlink:href="#a" href="#b" foo:x="1"/></svg>',
        ("svg", "svg", [], None, None, [("use", "use", [("href", "#a"), ("x", "1")], None, None, [])]),
        [],
        id="xlink-bound-elsewhere-with-undeclared",
    ),
)


@pytest.mark.parametrize("text,tree,diagnostics", FRAGMENTS)
def test_fragment_parses_to_tree(text, tree, diagnostics):
    diags = Diagnostics()
    doc = parse_svg(text, diags)
    assert shape(doc.root) == tree
    assert [str(diagnostic) for diagnostic in diags] == diagnostics


# Longer than expat's 8,192-character text buffer, so it arrives in several
# data events; entity references and a CDATA section fall inside it.
LONG_SOURCE = "a" * 9000 + "&amp;" + "b" * 9000 + "<![CDATA[<x>&]]>" + "&#x41;&lt;" + "c" * 9000
LONG_TEXT = "a" * 9000 + "&" + "b" * 9000 + "<x>&" + "A<" + "c" * 9000


def data_events(text):
    parser = expat.ParserCreate()
    parser.buffer_text = True
    events = []
    parser.CharacterDataHandler = events.append
    parser.Parse(text, True)
    return events


class TestExactTrees:
    """Builder cases the fragment table does not reach: long text, foreign content, the depth cap."""

    def test_long_text_is_joined_from_its_data_events(self):
        text = f"<svg>{LONG_SOURCE}<rect/></svg>"
        assert len(data_events(text)) > 2
        doc = parse_svg(text)
        assert shape(doc.root) == ("svg", "svg", [], LONG_TEXT, None, [("rect", "rect", [], None, None, [])])
        assert doc.diagnostics.codes() == []

    def test_long_tail_is_joined_from_its_data_events(self):
        text = f"<svg><g><rect/>{LONG_SOURCE}</g>x</svg>"
        assert len(data_events(text)) > 3
        doc = parse_svg(text)
        assert shape(doc.root) == (
            "svg", "svg", [], None, None,
            [("g", "g", [], None, "x", [("rect", "rect", [], None, LONG_TEXT, [])])],
        )
        assert doc.diagnostics.codes() == []

    def test_implemented_tags_inside_a_foreign_object_are_unknown_without_a_warning(self):
        doc = parse_svg(
            '<svg><foreignObject id="f"><rect id="in"/>t<foreignObject><g/></foreignObject>'
            '<circle r="1"/></foreignObject><rect id="after"/><blink/></svg>'
        )
        assert shape(doc.root) == (
            "svg", "svg", [], None, None,
            [
                (
                    "foreignObject", "foreignObject", [("id", "f")], None, None,
                    [
                        ("unknown", "rect", [("id", "in")], None, "t", []),
                        ("unknown", "foreignObject", [], None, None, [("unknown", "g", [], None, None, [])]),
                        ("unknown", "circle", [("r", "1")], None, None, []),
                    ],
                ),
                ("rect", "rect", [("id", "after")], None, None, []),
                ("unknown", "blink", [], None, None, []),
            ],
        )
        assert [str(d) for d in doc.diagnostics] == ["warning UNKNOWN_ELEMENT: unsupported element <blink> @svg/blink[2]"]
        assert sorted(doc.id_index) == ["after", "f", "in"]

    def test_text_and_tail_around_a_skipped_subtree(self):
        # The g holding "before" is at the cap; its child g is past it, so
        # that g's own text, its subtree and its tail ("after") are skipped.
        chain = '<g>before<g id="deep">inside<rect/>in-tail</g>after</g>outer-tail'
        for _ in range(MAX_DEPTH - 2):
            chain = f"<g>{chain}</g>"
        doc = parse_svg(f"<svg>{chain}</svg>")
        expected = ("g", "g", [], "before", "outer-tail", [])
        for _ in range(MAX_DEPTH - 2):
            expected = ("g", "g", [], None, None, [expected])
        assert shape(doc.root) == ("svg", "svg", [], None, None, [expected])
        assert doc.diagnostics.codes() == ["TOO_DEEP"]
        assert doc.id_index == {}


class TestReader:
    """Deep trees, declared differences from the ElementTree reader, and error paths."""

    def test_deep_chain_parses_without_recursion(self):
        depth = 5000
        doc = parse_svg("<svg>" + "<g>" * depth + "</g>" * depth + "</svg>")
        node, levels = doc.root, 1
        while node.children:
            (node,) = node.children
            levels += 1
        assert levels == MAX_DEPTH
        assert doc.diagnostics.codes() == ["TOO_DEEP"]

    def test_elements_past_the_depth_cap_are_skipped_once_reported(self):
        # The root svg is level 1, so the innermost g is at the cap.
        chain = 'text<g id="deep"><rect id="deeper"/></g>tail<rect id="last"/>'
        for _ in range(MAX_DEPTH - 1):
            chain = f"<g>{chain}</g>"
        doc = parse_svg(f'<svg>{chain}<g><g id="kept"/></g></svg>')
        assert [(x.severity, x.code) for x in doc.diagnostics] == [("error", "TOO_DEEP")]
        (diagnostic,) = doc.diagnostics
        assert diagnostic.location == "svg" + "/g[0]" * (MAX_DEPTH - 1) + "/g[0]"
        assert sorted(doc.id_index) == ["kept"]
        innermost = doc.root
        while innermost.children and innermost.children[0].tag == "g":
            innermost = innermost.children[0]
        assert innermost.children == [] and innermost.text == "text"

    def test_malformed_input_names_the_syntax_error_not_an_undeclared_prefix(self):
        diags = Diagnostics()
        assert parse_svg("<svg:svg><rect</svg:svg>", diags) is None
        assert [str(d) for d in diags] == [
            "error MALFORMED_XML: not well-formed XML: not well-formed (invalid token): line 1, column 14"
        ]

    def test_doctype_before_undeclared_prefixes_parses(self):
        doc = parse_svg('<!DOCTYPE svg><svg:svg viewBox="0 0 9 9"><svg:use xlink:href="#a" foo:x="1"/></svg:svg>')
        assert shape(doc.root) == (
            "svg", "svg", [("viewBox", "0 0 9 9")], None, None,
            [("use", "use", [("xlink:href", "#a"), ("x", "1")], None, None, [])],
        )
        assert doc.diagnostics.codes() == []

    def test_names_are_not_checked_against_namespace_rules(self):
        # Two prefixes bound to one namespace: a duplicate attribute under
        # namespace processing, two names that reduce alike here.
        doc = parse_svg('<svg xmlns:a="urn:u" xmlns:b="urn:u"><rect a:x="1" b:x="2"/></svg>')
        assert doc.root.children[0].attributes == {"x": "1"}

    def test_xml_prefix_is_kept(self):
        doc = parse_svg('<svg xml:lang="en" foo:lang="fr"><text xml:space="preserve"> a </text></svg>')
        assert doc.root.attributes == {"xml:lang": "en", "lang": "fr"}
        assert doc.root.children[0].attributes == {"xml:space": "preserve"}

    def test_undefined_entity_behind_an_external_dtd_is_malformed(self):
        diags = Diagnostics()
        assert parse_svg('<!DOCTYPE svg SYSTEM "svg.dtd"><svg>&nbsp;</svg>', diags) is None
        assert [str(d) for d in diags] == [
            "error MALFORMED_XML: not well-formed XML: undefined entity &nbsp;: line 1, column 36"
        ]

    @pytest.mark.parametrize(
        "text,position",
        [("<svg>\ud800</svg>", 5), ('<svg><rect id="\ud800"/></svg>', 15), ("<rect/>\ud800<svg/>", 7)],
        ids=["text", "attribute", "fragment"],
    )
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_lone_surrogate_is_malformed(self, text, position, strict):
        output, diags = convert_text(text, ConvertOptions(strict=strict))
        assert output is None
        assert [str(d) for d in diags] == [
            "error MALFORMED_XML: not well-formed XML: 'utf-8' codec can't encode character "
            f"'\\ud800' in position {position}: surrogates not allowed"
        ]

    def test_parse_leaves_no_reference_cycles(self):
        # A cycle through the parser would keep each tree alive until the
        # cyclic collector runs, raising peak memory over many documents.
        gc.collect()
        gc.disable()
        try:
            parse_svg("<svg><rect/></svg>")
            parse_svg("<rect/><svg/>")
            parse_svg('<!DOCTYPE svg SYSTEM "svg.dtd"><svg>&nbsp;</svg>')
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_warnings_come_only_from_the_parse_that_succeeds(self):
        diags = Diagnostics()
        doc = parse_svg('<svg><blink id="x"/></svg><svg id="x"/>', diags)
        assert [child.name for child in doc.root.children] == ["blink"]
        assert [str(d) for d in diags] == ["warning UNKNOWN_ELEMENT: unsupported element <blink> @svg/blink[0]"]


def resolve_by_the_rules(bindings, attributes):
    """The module docstring's rules for one element: its new bindings and its resolved attributes."""
    bindings = {**bindings, **{raw[6:]: uri for raw, uri in attributes.items() if raw.startswith("xmlns:")}}
    resolved = {}
    for raw, value in attributes.items():
        if raw == "xmlns" or raw.startswith("xmlns:"):
            continue
        if ":" in raw and not raw.startswith("xml:"):
            prefix, local = raw.split(":", 1)
            raw = "xlink:" + local if bindings.get(prefix) == XLINK_NS else local
        resolved.setdefault(raw, value)
    return bindings, resolved


def attributes_by_the_rules(text):
    """Each element's attributes in document order, the rules applied to every element; the root is the svg."""
    found, stack = [], [{"xlink": XLINK_NS}]

    def start(name, attributes):
        bindings, resolved = resolve_by_the_rules(stack[-1], attributes)
        stack.append(bindings)
        found.append(list(resolved.items()))

    parser = expat.ParserCreate()
    parser.StartElementHandler, parser.EndElementHandler = start, lambda name: stack.pop()
    parser.Parse(text, True)
    return found


def parsed_attributes(text):
    return [list(node.attributes.items()) for node in iter_nodes(parse_svg(text).root)]


PREFIX_NAMES = ["x", "href", "id", "fill", "xlink:href", "l:href", "p:x", "p:href", "xml:space", "inkscape:label",
                "xmlns", "xmlns:p", "xmlns:l", "xmlns:xlink", "data-x"]
NAMESPACES = [XLINK_NS, "urn:other", svg_dom.SVG_NS]


@st.composite
def scoped_elements(draw, depth=0):
    """A random element under prefix declarations, its children up to four levels down."""
    tag = draw(st.sampled_from(["g", "use", "svg:rect", "foo:bar"]))
    names = draw(st.lists(st.sampled_from(PREFIX_NAMES), unique=True, max_size=5))
    attributes = "".join(
        f' {name}="{draw(st.sampled_from(NAMESPACES)) if name.startswith("xmlns") else "v"}"' for name in names
    )
    children = draw(st.lists(scoped_elements(depth + 1), max_size=0 if depth == 3 else 3))
    return f"<{tag}{attributes}>{''.join(children)}</{tag}>"


XHTML_NS = "http://www.w3.org/1999/xhtml"


def resolutions(monkeypatch):
    """The attribute names of each element that runs _resolve_prefixes from now on, in call order."""
    resolved = []
    real = svg_dom._resolve_prefixes

    def resolve(scope, attributes):
        resolved.append(list(attributes))
        return real(scope, attributes)

    monkeypatch.setattr(svg_dom, "_resolve_prefixes", resolve)
    return resolved


class TestPrefixScopes:
    """Which names change under which declarations, on elements that skip _resolve_prefixes and on those that run it."""

    def test_a_rebinding_ends_with_its_element(self):
        doc = parse_svg('<svg><g xmlns:xlink="urn:other"><use xlink:href="#a"/></g><use xlink:href="#b"/></svg>')
        group, after = doc.root.children
        assert group.attributes == {} and group.children[0].attributes == {"href": "#a"}
        assert after.attributes == {"xlink:href": "#b"}

    def test_another_prefix_bound_to_xlink_reads_as_xlink(self):
        doc = parse_svg(f'<svg><g><use xmlns:l="{XLINK_NS}" l:href="#a"/></g><use l:href="#b"/></svg>')
        assert [node.attributes for node in iter_nodes(doc.root)] == [{}, {}, {"xlink:href": "#a"}, {"href": "#b"}]

    def test_xml_prefix_is_kept_and_another_is_stripped(self):
        doc = parse_svg('<svg><g xml:space="preserve" inkscape:label="layer" fill="red"/></svg>')
        assert list(doc.root.children[0].attributes.items()) == [("xml:space", "preserve"), ("label", "layer"),
                                                                 ("fill", "red")]

    def test_a_declaration_past_the_depth_cap_does_not_outlive_its_element(self):
        # The innermost g is at the cap, so its child is skipped with its declaration and subtree.
        chain = '<g><g xmlns:xlink="urn:other"><use xlink:href="#in"/></g></g><use xlink:href="#after"/>'
        for _ in range(MAX_DEPTH - 2):
            chain = f"<g>{chain}</g>"
        doc = parse_svg(f"<svg>{chain}<use xlink:href='#last'/></svg>")
        assert doc.diagnostics.codes() == ["TOO_DEEP"]
        uses = [node.attributes for node in iter_nodes(doc.root) if node.tag == "use"]
        assert uses == [{"xlink:href": "#after"}, {"xlink:href": "#last"}]

    @given(st.lists(scoped_elements(), max_size=4))
    @example(['<g xmlns:xlink="urn:other"><use xlink:href="v"/></g>', '<use xlink:href="v" href="w"/>'])
    def test_every_element_reads_as_the_rules_say(self, children):
        text = f'<svg xmlns="{svg_dom.SVG_NS}">{"".join(children)}</svg>'
        assert parsed_attributes(text) == attributes_by_the_rules(text)

    @pytest.mark.parametrize("xlink", [XLINK_NS, "urn:other", None])
    def test_every_plain_name_reads_as_written_under_its_bindings(self, xlink):
        bindings = {} if xlink is None else {"xlink": xlink}
        _, plain = svg_dom._scope(bindings)
        assert plain >= svg_dom._PLAIN and ("xlink:href" in plain) == (xlink == XLINK_NS)
        for name in plain:
            assert resolve_by_the_rules(bindings, {name: "v"}) == (bindings, {name: "v"})

    def test_an_element_of_plain_names_does_not_resolve_prefixes(self, monkeypatch):
        resolved = resolutions(monkeypatch)
        parse_svg(f'<svg xmlns="{svg_dom.SVG_NS}"><use xlink:href="#a" x="1"/><rect fill="red" data-x="1"/>'
                  '<use xlink:href="#a" data-x="1"/></svg>')
        # Unlisted names cost a resolution only beside a prefixed name; a lone xmlns is dropped in place.
        assert resolved == [["xlink:href", "data-x"]]

    @pytest.mark.parametrize("attributes,kept", [
        (f'xmlns="{XHTML_NS}"', []),
        (f'id="d" xmlns="{XHTML_NS}" data-x="1"', [("id", "d"), ("data-x", "1")]),
        (f'data-x="1" xmlns="{XHTML_NS}" fill="red" class="c"', [("data-x", "1"), ("fill", "red"), ("class", "c")]),
    ], ids=["lone", "between-names", "before-names"])
    def test_a_default_namespace_without_prefixed_names_is_dropped_in_place(self, attributes, kept, monkeypatch):
        resolved = resolutions(monkeypatch)
        doc = parse_svg(f'<svg><foreignObject><div {attributes}>a</div></foreignObject></svg>')
        assert list(doc.root.children[0].children[0].attributes.items()) == kept
        assert resolved == []

    @pytest.mark.parametrize("attributes,kept", [
        (f'xmlns="{XHTML_NS}" xmlns:p="urn:p" p:x="1" id="d"', [("x", "1"), ("id", "d")]),
        (f'xmlns="{XHTML_NS}" xmlns:p="urn:p"', []),
        (f'xlink:href="#a" xmlns="{XHTML_NS}" data-x="1"', [("xlink:href", "#a"), ("data-x", "1")]),
        (f'xmlns="{XHTML_NS}" inkscape:label="l"', [("label", "l")]),
    ], ids=["declaration-and-prefixed-name", "declaration", "xlink-href", "undeclared-prefix"])
    def test_a_default_namespace_beside_a_prefixed_name_still_resolves(self, attributes, kept, monkeypatch):
        resolved = resolutions(monkeypatch)
        doc = parse_svg(f'<svg><foreignObject><div {attributes}>a</div></foreignObject></svg>')
        assert list(doc.root.children[0].children[0].attributes.items()) == kept
        assert len(resolved) == 1

    def test_the_benchmark_corpora_write_plain_names_and_declarations_only(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            import corpus
        finally:
            del sys.path[0]
        names = set()
        for workload in ("flat_shapes", "long_paths", "transform_tree"):
            for document in corpus.build_corpus(workload, 3).documents:
                parser = expat.ParserCreate()
                parser.StartElementHandler = lambda name, attributes: names.update(attributes.keys())
                parser.Parse(document.text, True)
        assert {name for name in names if name.split(":")[0] != "xmlns"} <= svg_dom._PLAIN_XLINK


class TestParseViewBox:
    def test_standard_box(self, diags):
        for value in ("0 0 800 800", "0,0,800,800", "0, 0, 800, 800"):
            assert parse_view_box(value, diags, "svg@viewBox") == (0, 0, 800, 800)
        assert not diags.has_errors

    def test_unit_box(self, diags):
        for value in ("0 0 1 1", "0,0,1,1", "0 ,0 , 1,1"):
            assert parse_view_box(value, diags, "svg@viewBox") == (0, 0, 1, 1)
        assert not diags.has_errors

    def test_whitespace_runs(self, diags):
        # oracle: split on runs of whitespace, with the commas taken out first
        for value in ("  10   20  30 40 ", " 10,\t20 ,30\n,40,"):
            expected = tuple(float(t) for t in value.replace(",", " ").split())
            assert parse_view_box(value, diags, "svg@viewBox") == expected
        assert not diags.has_errors

    @pytest.mark.parametrize(
        "bad",
        ["0 0 800", "0 0 800 800 9", "a b c d", "0 0 -1 5", "", "0,0,800", "0,0,800,800,9", "0,0,-1,5", ","],
    )
    def test_bad_values(self, bad, diags):
        assert parse_view_box(bad, diags, "svg@viewBox") is None
        assert diags.has_errors


class TestParsePoints:
    def test_three_point_polyline(self, diags):
        assert parse_points("0,0 100,100 200,200", diags, "svg/polyline[0]") == [0, 0, 100, 100, 200, 200]

    def test_empty(self, diags):
        assert parse_points("", diags, "svg/polyline[0]") == []
        assert not diags.has_errors

    def test_testing_elements_points(self, diags):
        coords = parse_points("300,300 350,300 350,250 400,250 400,300 450,300", diags, "svg/polyline[0]")
        assert len(coords) == 12

    def test_odd_count_is_error(self, diags):
        assert parse_points("1,2 3", diags, "svg/polyline[0]") == [1.0, 2.0]
        assert "BAD_POINTS" in diags.codes()

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0)],
            [(1.5, -2.5), (3.25, 4.0), (-0.125, 9.0)],
            [(10.0, 20.0), (30.0, 40.0)],
        ],
    )
    def test_join_then_parse_is_identity(self, points, diags):
        joined = " ".join(f"{x},{y}" for x, y in points)
        assert parse_points(joined, diags, "svg/polyline[0]") == [value for point in points for value in point]


WIDTH = "svg/rect[0]@width"  # where the parse_length calls below read their length


class TestParseLength:
    def test_px_suffix(self, diags):
        assert parse_length("10px", diags, WIDTH) == 10

    def test_zero(self, diags):
        assert parse_length("0", diags, WIDTH) == 0

    def test_bare_number(self, diags):
        assert parse_length("70", diags, WIDTH) == 70

    @pytest.mark.parametrize("bad", ["10%", "2em", "abc", ""])
    def test_unsupported_units(self, bad, diags):
        assert parse_length(bad, diags, WIDTH) is None
        assert "UNSUPPORTED_UNIT" in diags.codes()

    def test_scientific_notation_rejected(self, diags):
        assert parse_length("1e3", diags, WIDTH) is None
        assert [(d.code, d.message) for d in diags] == [
            ("UNSUPPORTED_UNIT", "exponent notation is not supported in '1e3'")
        ]

    @pytest.mark.parametrize("value", ["2E-3px", "-1e+1", ".5e2", " 1e3 ", "1e3em"])
    def test_exponent_notation_is_named_in_every_form(self, value, diags):
        assert parse_length(value, diags, WIDTH) is None
        assert [(d.code, d.message) for d in diags] == [
            ("UNSUPPORTED_UNIT", f"exponent notation is not supported in {value!r}")
        ]

    @pytest.mark.parametrize("value,unit", [("1e", "e"), ("1em", "em"), ("1 e3", "e3"), ("1e-", "e-")])
    def test_an_e_without_exponent_digits_is_a_unit(self, value, unit, diags):
        assert parse_length(value, diags, WIDTH) is None
        assert [(d.code, d.message) for d in diags] == [
            ("UNSUPPORTED_UNIT", f"unsupported length unit {unit!r} in {value!r}")
        ]

    @given(
        st.lists(
            st.sampled_from(
                list("0123456789.+-e_px") + [" ", "\t", "\n", "\r", "\f", "\v", "\u00a0", "\u2003"]
                + ["inf", "nan", "Infinity", "9" * 400]
            ),
            max_size=12,
        ).map("".join)
    )
    @example("1e3")
    @example(" -1e+1px")
    @example("1 e3")
    @example("1e-")
    def test_matches_the_reference_grammar(self, value):
        expected, actual = Diagnostics(), Diagnostics()
        reference = reference_parse_length(value, expected, WIDTH)
        assert parse_length(value, actual, WIDTH) == reference
        assert actual.items == expected.items


# SVG 1.1 white space: the only characters a length may have around it.
SVG_WSP = " \t\r\n"


def reference_parse_length(value, diagnostics, location):
    """parse_length as it was before its validate-first fast path, stripping SVG white space only,
    with a number followed by an exponent reported as exponent notation.  The number is read by
    the grammar's regex, not by the code under test."""
    token = value.strip(SVG_WSP)
    if token.endswith("px"):
        token = token[:-2].strip(SVG_WSP)
    if re.fullmatch(NUMBER_PATTERN, token) and math.isfinite(float(token)):
        return float(token)
    suffix = re.match(NUMBER_PATTERN, token)
    if re.match(f"(?:{NUMBER_PATTERN})[eE][+-]?[0-9]", token):
        diagnostics.error("UNSUPPORTED_UNIT", f"exponent notation is not supported in {value!r}", location)
    elif suffix and token[suffix.end():].strip(SVG_WSP):
        diagnostics.error(
            "UNSUPPORTED_UNIT",
            f"unsupported length unit {token[suffix.end():].strip(SVG_WSP)!r} in {value!r}",
            location,
        )
    else:
        diagnostics.error("UNSUPPORTED_UNIT", f"invalid length {value!r}", location)
    return None


class TestStructuralEquality:
    def test_equal_trees(self):
        a = parse_svg('<svg><rect x="1"/></svg>').root
        b = parse_svg('<svg><rect x="1"/></svg>').root
        assert structurally_equal(a, b)

    def test_attribute_order_matters(self):
        a = parse_svg('<svg><rect x="1" y="2"/></svg>').root
        b = parse_svg('<svg><rect y="2" x="1"/></svg>').root
        assert not structurally_equal(a, b)

    def test_different_value(self):
        a = parse_svg('<svg><rect x="1"/></svg>').root
        b = parse_svg('<svg><rect x="2"/></svg>').root
        assert not structurally_equal(a, b)

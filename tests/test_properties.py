"""Properties of convert_text over arbitrary str input."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svg2vml import ConvertOptions, convert_text
from svg2vml.diagnostics import Diagnostics
from svg2vml.mappers import map_document
from svg2vml.svg_dom import expansion_budget, parse_svg

# Pieces of markup, numbers and characters that expat or the mappers treat
# specially, lone surrogates included; joined at random they give mostly
# malformed documents and some well-formed ones.
XML_TOKENS = [
    "<svg>", "</svg>", '<svg viewBox="0 0 9 9">', "<g", "</g>", "<rect", "<path", "<text>", "</text>",
    "<use", "<foreignObject>", "</foreignObject>", "<svg:svg>", "</svg:svg>", "/>", ">", "<", "&", "&amp;",
    "&#0;", "&nbsp;", "<![CDATA[", "]]>", "<!--", "-->", "<?pi x?>", "<?xml version='1.0'?>",
    "<!DOCTYPE svg>", " ", '"', "=", ' width="1"', ' height="2"', ' x="-3"', ' d="M 0 0 L 1 1"',
    ' transform="rotate(30) scale(2)"', ' xlink:href="#a"', ' id="a"', ' xml:lang="en"', ' xmlns:a="urn:a"',
    ' a:x="1"', ' fill-opacity="0.5"', "1" + "0" * 308, "9" * 400, "nan", "\ud800", "\udfff", "\x00",
    "\uffff", "\u00e9", "\U0001f600",
]


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(st.sampled_from(XML_TOKENS), max_size=24).map("".join),
    mode=st.sampled_from(["vml", "xhtml"]),
    strict=st.booleans(),
)
def test_convert_text_never_raises(text, mode, strict):
    output, diagnostics = convert_text(text, ConvertOptions(mode=mode, strict=strict))
    assert output is None or isinstance(output, str)
    assert output is not None or diagnostics.has_errors
    if strict:
        assert (output is None) == (len(diagnostics) > 0)


@pytest.mark.parametrize("mode", ["vml", "xhtml"])
def test_deep_nesting_is_cut_not_raised(mode):
    depth = 5000
    text = '<svg viewBox="0 0 9 9">' + "<g>" * depth + '<rect width="1" height="1"/>' + "</g>" * depth + "</svg>"
    output, diagnostics = convert_text(text, ConvertOptions(mode=mode))
    assert diagnostics.codes() == ["TOO_DEEP"]
    assert output is not None and "rect" not in output
    strict_output, diagnostics = convert_text(text, ConvertOptions(mode=mode, strict=True))
    assert strict_output is None
    assert diagnostics.codes() == ["TOO_DEEP"]


def _use_under_groups():
    """A use under 190 nested groups whose target is a 190-deep chain."""
    target = "<g>" * 189 + '<rect width="1" height="1"/>' + "</g>" * 189
    use = "<g>" * 190 + '<use xlink:href="#t"/>' + "</g>" * 190
    return f'<svg viewBox="0 0 9 9"><defs><g id="t">{target}</g></defs>{use}</svg>'


def _linked_chains():
    """Six defs targets, each a 150-deep chain ending in a use of the next."""
    defs = ""
    for index in range(6):
        inner = f'<use xlink:href="#c{index + 1}"/>' if index < 5 else '<rect width="1" height="1"/>'
        defs += f'<g id="c{index}">' + "<g>" * 149 + inner + "</g>" * 149 + "</g>"
    return f'<svg viewBox="0 0 9 9"><defs>{defs}</defs><use xlink:href="#c0"/></svg>'


def _flat_use_chain(hops=3000):
    """A flat chain of use hops in defs, each use referring to the next."""
    uses = "".join(f'<use id="u{index}" xlink:href="#u{index + 1}"/>' for index in range(hops))
    return f'<svg viewBox="0 0 9 9"><defs>{uses}<rect id="u{hops}" width="1" height="1"/></defs></svg>'


@pytest.mark.parametrize(
    "build,codes",
    [
        (_use_under_groups, ["TOO_DEEP"]),
        (_linked_chains, ["TOO_DEEP"]),
        # Every use in defs maps its own chain, so the chain also runs out of budget.
        (_flat_use_chain, ["TOO_DEEP", "EXPANSION_LIMIT"]),
    ],
    ids=["_use_under_groups", "_linked_chains", "_flat_use_chain"],
)
def test_use_chains_are_cut_at_the_depth_cap_not_raised(build, codes):
    # Each stays inside the parse cap; only mapping through use goes deeper.
    text = build()
    output, diagnostics = convert_text(text)
    assert diagnostics.codes() == codes
    assert output is not None
    strict_output, diagnostics = convert_text(text, ConvertOptions(strict=True))
    assert strict_output is None
    assert diagnostics.codes() == codes


class _ScanCountingList(list):
    """A list that counts the scans over it, from a for loop or a comprehension."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_the_mapping_depth_cut_does_not_scan_the_diagnostics():
    # n rects reported at parse time, then n uses whose target lies past the
    # depth cap: each cut use asks whether TOO_DEEP was already reported.
    count = 2000
    body = '<rect width="1em" height="1"/>' * count + '<use xlink:href="#t"/>' * count
    text = (
        '<svg viewBox="0 0 9 9"><defs><rect id="t" width="1" height="1"/></defs>'
        + "<g>" * 198 + body + "</g>" * 198 + "</svg>"
    )
    diagnostics = Diagnostics()
    diagnostics.items = _ScanCountingList()
    doc = parse_svg(text, diagnostics)
    map_document(doc, ConvertOptions(), diagnostics)
    assert diagnostics.items.scans == 0  # not one scan per cut use
    assert diagnostics.codes() == ["UNSUPPORTED_UNIT"] * count + ["TOO_DEEP"]


def test_a_parse_time_depth_cut_suppresses_the_mapping_one():
    too_deep = "<g>" * 250 + "</g>" * 250
    cut_use = "<g>" * 198 + '<use xlink:href="#t"/>' + "</g>" * 198
    text = f'<svg viewBox="0 0 9 9"><defs><rect id="t" width="1" height="1"/></defs>{too_deep}{cut_use}</svg>'
    output, diagnostics = convert_text(text)
    assert output is not None
    assert diagnostics.codes() == ["TOO_DEEP"]
    assert diagnostics.items[0].location.startswith("svg/g[1]/")  # the parsed chain, not the use in g[2]


def _binary_use_tree(levels):
    """Two rects, then levels of groups that each use the one below twice: 2 ** (levels + 1) rects."""
    defs = '<g id="t0"><rect width="1" height="1"/><rect x="2" width="1" height="1"/></g>'
    for level in range(1, levels + 1):
        defs += f'<g id="t{level}">' + f'<use xlink:href="#t{level - 1}"/>' * 2 + "</g>"
    return f'<svg viewBox="0 0 9 9"><defs>{defs}</defs><use xlink:href="#t{levels}"/></svg>'


def test_a_binary_use_tree_is_cut_at_the_expansion_budget():
    text = _binary_use_tree(18)
    output, diagnostics = convert_text(text)
    assert diagnostics.codes() == ["EXPANSION_LIMIT"]
    elements = text.count("<") - text.count("</")
    assert output is not None and output.count("<v:roundrect") <= expansion_budget(elements)
    strict_output, diagnostics = convert_text(text, ConvertOptions(strict=True))
    assert strict_output is None
    assert diagnostics.codes() == ["EXPANSION_LIMIT"]


@pytest.mark.parametrize(
    "build,digest,located",
    [
        (_use_under_groups, "2aefa7bef444db058f250116278262aab79c43cecaf91dd37ec2ce690d9cf964",
         [("TOO_DEEP", "svg/g[1]" + "/g[0]" * 189 + "/use[0]" + "/g[0]" * 8)]),
        (_linked_chains, "10b2c41513fc767aa39f65e4c8346891e86839f927bba7ebfc7595c67794b751",
         [("TOO_DEEP", "svg/defs[0]" + "/g[0]" * 150 + "/use[0]" + "/g[0]" * 47)]),
        (_flat_use_chain, "3dc91dc2ccd1c72fd378fd309014f9fac177ea6a7f0c23f0b4f7751072c29a46",
         [("TOO_DEEP", "svg/defs[0]/use[0]"), ("EXPANSION_LIMIT", "svg/defs[0]/use[747]")]),
        (lambda: _binary_use_tree(18), "718c60b99447008af26ee92a6c401b3c27486f94f1806a59b829314a5317d610",
         [("EXPANSION_LIMIT", "svg/defs[0]/g[14]" + "/use[0]" * 5 + "/use[1]" * 3 + "/use[0]" * 3)]),
    ],
    ids=["_use_under_groups", "_linked_chains", "_flat_use_chain", "_binary_use_tree(18)"],
)
def test_use_pathologies_keep_their_output_and_locations(build, digest, located):
    # The codes alone let a copy cut at one depth be reused at another; the
    # bytes and where each cut is reported do not.  Measured in lenient mode.
    output, diagnostics = convert_text(build())
    assert hashlib.sha256(output.encode("utf-8")).hexdigest() == digest
    assert [(d.code, d.location) for d in diagnostics] == located


@pytest.mark.parametrize("uses", [100, 1000])
def test_a_symbol_used_many_times_maps_every_copy(uses):
    # A sprite sheet maps about (symbol size) x (uses) elements from symbol size + uses parsed ones.
    paths = "".join(f'<path d="M {index} 0 L {index} 9"/>' for index in range(20))
    copies = "".join(f'<use xlink:href="#i" x="{index}"/>' for index in range(uses))
    text = f'<svg viewBox="0 0 9 9"><defs><g id="i">{paths}</g></defs>{copies}</svg>'
    output, diagnostics = convert_text(text, ConvertOptions(strict=True))
    assert diagnostics.codes() == []
    assert output is not None and output.count("<v:shape") == 20 * (uses + 1)

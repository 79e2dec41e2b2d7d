"""Every attribute parser reads numbers by the one grammar in `numeric`.

White space is SVG 1.1's (space, tab, CR and LF), a list also splits on
commas, and digits are ASCII.  Any other character, a Unicode space or
digit included, is an error under the parser's own code.
"""

import pytest

from svg2vml.diagnostics import Diagnostics
from svg2vml.mappers import map_document
from svg2vml.path_data import parse_path_data
from svg2vml.style import resolve_gradient
from svg2vml.svg_dom import parse_length, parse_points, parse_svg, parse_view_box
from svg2vml.transform import parse_transform_list


def _opacity(value, diagnostics, location):
    """The alpha filter of a rect with this opacity (set after parsing, so any character reaches it)."""
    doc = parse_svg('<svg viewBox="0 0 10 10"><rect width="1" height="1"/></svg>', diagnostics)
    doc.root.children[0].attributes["opacity"] = value
    tree, _ = map_document(doc)
    return tree.children[0].style.get("filter")


def _stop_offset(value, diagnostics, location):
    """The gradient whose first stop has this offset."""
    doc = parse_svg(
        '<svg><linearGradient><stop stop-color="red"/><stop offset="1" stop-color="blue"/></linearGradient></svg>'
    )
    gradient = doc.root.children[0]
    gradient.children[0].attributes["offset"] = value
    return resolve_gradient(gradient, diagnostics, location)


# name: (reader taking (text, diagnostics, location), text with a {c} slot wherever the
# grammar allows white space, the reader's own code, whether a comma may stand
# in every slot)
PARSERS = {
    "d": (parse_path_data, "M 1{c}2 L 3{c}4", "BAD_PATH", True),
    "points": (parse_points, "1{c}2 3{c}4", "BAD_POINTS", True),
    "viewBox": (parse_view_box, "0{c}0 10{c}10", "BAD_VIEWBOX", True),
    "transform": (parse_transform_list, "translate(1{c}2){c}scale(3{c}4)", "BAD_TRANSFORM", True),
    "transform call": (parse_transform_list, "rotate{c}({c}30{c})", "BAD_TRANSFORM", False),
    "length": (parse_length, "{c}5{c}px{c}", "UNSUPPORTED_UNIT", False),
    "opacity": (_opacity, "{c}0.5{c}", "BAD_ATTRIBUTE", False),
    "stop offset": (_stop_offset, "{c}0{c}%{c}", "UNSUPPORTED_GRADIENT", False),
}

WHITE_SPACE = [" ", "\t", "\r", "\n"]
# Unicode spaces, the ASCII controls Python's str.strip() and str.split()
# also treat as white space (FF, VT and the information separators
# \x1c-\x1f), NEL, ARABIC-INDIC DIGIT THREE, which float() reads as 3, the
# underscore, which float() reads as a digit separator, and three
# non-ASCII letters: LONG S (upper-cases to S), the KELVIN SIGN (lower-cases
# to k) and SCRIPT SMALL L.
OUTSIDE = ["\u2003", "\u00a0", "\f", "\v", "\x1c", "\x1f", "\u0085", "\u0663", "_", "\u017f", "\u212a", "\u2113"]

ACCEPTED = [
    (name, c) for name, (_, _, _, commas) in PARSERS.items() for c in WHITE_SPACE + ([","] if commas else [])
]
REJECTED = [(name, c) for name in PARSERS for c in OUTSIDE]


def _id(case):
    name, c = case
    return f"{name}-U+{ord(c):04X}"


def _fill(text, c, slot=None):
    """The text with c in every slot, or in the given slot only and a space in the others."""
    first, *rest = text.split("{c}")
    return first + "".join((c if slot in (None, index) else " ") + part for index, part in enumerate(rest))


@pytest.mark.parametrize("name,c", ACCEPTED, ids=map(_id, ACCEPTED))
def test_each_parser_accepts_the_separators(name, c):
    read, text, _, _ = PARSERS[name]
    plain = read(_fill(text, " "), Diagnostics(), "svg")
    assert plain
    diagnostics = Diagnostics()
    assert read(_fill(text, c), diagnostics, "svg") == plain
    assert diagnostics.codes() == []


@pytest.mark.parametrize("name,c", REJECTED, ids=map(_id, REJECTED))
def test_each_parser_rejects_characters_outside_the_grammar(name, c):
    read, text, code, _ = PARSERS[name]
    for slot in range(text.count("{c}")):
        diagnostics = Diagnostics()
        assert not read(_fill(text, c, slot), diagnostics, "svg"), slot
        assert diagnostics.codes() == [code], slot

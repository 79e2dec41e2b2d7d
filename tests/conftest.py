import re
from typing import Optional
from xml.sax.saxutils import unescape

import pytest

from svg2vml.cli import convert_text
from svg2vml.diagnostics import Diagnostics
from svg2vml.mappers import Conversion, MapperContext, VmlNode, map_document
from svg2vml.options import ConvertOptions
from svg2vml.svg_dom import SvgNode, parse_points, parse_svg
from svg2vml.transform import (
    DISTRIBUTE,
    EMPTY_CHAIN,
    RECALC_POINTS,
    parse_transform_list,
    place,
    recalc_points,
)


@pytest.fixture
def diags():
    return Diagnostics()


def wrap_svg(body: str, view_box: str = "0 0 800 800", size: tuple = (800, 800)) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'viewBox="{view_box}" width="{size[0]}" height="{size[1]}">{body}</svg>'
    )


def structurally_equal(a: Optional[SvgNode], b: Optional[SvgNode]) -> bool:
    """Compare two trees by local name, attribute table, order and payload."""
    if a is None or b is None:
        return a is b

    def norm(text: Optional[str]) -> str:
        return (text or "").strip()

    if a.name != b.name or norm(a.text) != norm(b.text):
        return False
    if list(a.attributes.items()) != list(b.attributes.items()):
        return False
    if len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


def iter_nodes(node):
    """node and every node below it, depth first in document order."""
    yield node
    for child in node.children:
        yield from iter_nodes(child)


_LEAF = re.compile(r'<([\w:]+)((?: [\w:-]+="[^"]*")*)/>')
_LEAF_ATTRIBUTE = re.compile(r' ([\w:-]+)="([^"]*)"')


def parse_leaf(markup: str) -> VmlNode:
    """A leaf as the mapper wrote it, read back into a node with its attributes unescaped."""
    match = _LEAF.fullmatch(markup)
    assert match is not None, markup
    attributes = _LEAF_ATTRIBUTE.findall(match.group(2))
    return VmlNode(match.group(1), {name: unescape(value, {"&quot;": '"'}) for name, value in attributes})


def child_nodes(node) -> list:
    """node's children in output order: its written leaves read back, then its child nodes."""
    return [*map(parse_leaf, getattr(node, "leaves", ())), *node.children]


def find(node, tag: str):
    """node's first child with the tag, a written leaf included, or None."""
    return next((child for child in child_nodes(node) if child.tag == tag), None)


def find_all(node, tag: str) -> list:
    """node and every node below it with the tag, written leaves included, in output order."""
    found = [node] if node.tag == tag else []
    for child in child_nodes(node):
        found.extend(find_all(child, tag))
    return found


def find_one(node, tag: str):
    matches = find_all(node, tag)
    assert len(matches) == 1, f"expected one {tag}, found {len(matches)}"
    return matches[0]


def map_snippet(body: str, options: ConvertOptions = None, **wrap_kwargs):
    """Parse and map a fragment; returns (root v:group, diagnostics)."""
    doc = parse_svg(wrap_svg(body, **wrap_kwargs))
    assert doc is not None
    tree, diagnostics = map_document(doc, options or ConvertOptions())
    return tree, diagnostics


def make_context() -> MapperContext:
    """The root context of an empty 800 by 800 document, its root size set as map_svg_root sets it."""
    doc = parse_svg(wrap_svg(""))
    conversion = Conversion(doc, doc.diagnostics, ConvertOptions().precision)
    conversion.root_size = (800.0, 800.0)
    return MapperContext(conversion)


def read_ops(text: str) -> list[tuple]:
    """The (name, args) ops of a transform list that reads without a diagnostic, as mapping reads them."""
    diagnostics = Diagnostics()
    ops = parse_transform_list(text, diagnostics, "svg/g[0]@transform")
    assert not list(diagnostics), text
    return ops


def ctm_of(ops) -> tuple:
    """The product of ops as mapping composes it, through Chain.extend."""
    return EMPTY_CHAIN.extend(ops).ctm


_POLYLINE_POINTS = "0,0 10,0 10,10"


def rejects(strategy: str, ops) -> bool:
    """Whether the converter reports the list UNSUPPORTED_TRANSFORM for the strategy.

    The offset strategies are asked through place(), which then places
    nothing.  recalc-points is asked end to end: a polyline carrying the list
    must map like one whose points were run through the CTM beforehand.  So
    is distribute: a group carrying the list over that polyline must convert
    to the same bytes as the polyline carrying the list itself.
    """
    attr = " ".join(f"{name}({' '.join(map(repr, args))})" for name, args in ops)  # parses back exactly
    if strategy == RECALC_POINTS:
        got, diagnostics = map_snippet(f'<polyline points="{_POLYLINE_POINTS}" transform="{attr}"/>')
        moved = recalc_points(ctm_of(ops), parse_points(_POLYLINE_POINTS, Diagnostics(), "svg/polyline[0]"))
        pairs = " ".join(f"{x!r},{y!r}" for x, y in zip(moved[0::2], moved[1::2]))
        expected, _ = map_snippet(f'<polyline points="{pairs}"/>')
        assert got == expected
        return "UNSUPPORTED_TRANSFORM" in diagnostics.codes()
    if strategy == DISTRIBUTE:
        grouped, grouped_diagnostics = convert_text(
            wrap_svg(f'<g transform="{attr}"><polyline points="{_POLYLINE_POINTS}"/></g>')
        )
        direct, direct_diagnostics = convert_text(
            wrap_svg(f'<g><polyline points="{_POLYLINE_POINTS}" transform="{attr}"/></g>')
        )
        assert grouped == direct
        assert grouped_diagnostics.codes() == direct_diagnostics.codes()
        return "UNSUPPORTED_TRANSFORM" in grouped_diagnostics.codes()
    diagnostics = Diagnostics()
    box, root = (100.0, 50.0, 70.0, 40.0), (800.0, 800.0)
    placed = place(strategy, EMPTY_CHAIN.extend(ops), box, root, 6, diagnostics)
    assert diagnostics.codes() == ([] if placed is not None else ["UNSUPPORTED_TRANSFORM"])
    return placed is None

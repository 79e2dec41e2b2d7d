"""Every reader reports into the collector it is passed.

A conversion has one Diagnostics collector: `pipeline.convert_text` makes
it, or `svg_dom.parse_svg` when called alone, and every reader below takes
it and the location of what it reads as required arguments.  A reader with
a private fallback collector would drop its faults unseen, so the source
holds no other construction.  `mappers.map_document` reaches the collector
it is given through its `Conversion`, on every route a mapping report takes.
"""

import ast
import inspect
from pathlib import Path

import pytest

from svg2vml.diagnostics import Diagnostics
from svg2vml.mappers import map_document
from svg2vml.options import ConvertOptions
from svg2vml.path_data import parse_path_data
from svg2vml.style import map_stroke_attribute, resolve_fill_reference, resolve_gradient
from svg2vml.svg_dom import parse_length, parse_points, parse_svg, parse_view_box
from svg2vml.transform import parse_transform_list

SRC = Path(__file__).resolve().parent.parent / "src" / "svg2vml"

DOCUMENT = parse_svg(
    '<svg><linearGradient id="one"><stop offset="0" stop-color="red"/></linearGradient><rect id="r"/></svg>'
)
ONE_STOP = DOCUMENT.id_index["one"]

# name: (a call of the reader with a fault, given the collector and location; the code it reports)
READERS = {
    "parse_path_data": (lambda d, at: parse_path_data("M 0 0 B 1 2", d, at), "BAD_PATH"),
    "parse_transform_list": (lambda d, at: parse_transform_list("skew(3)", d, at), "BAD_TRANSFORM"),
    "parse_view_box": (lambda d, at: parse_view_box("0 0 1", d, at), "BAD_VIEWBOX"),
    "parse_points": (lambda d, at: parse_points("1,2 3", d, at), "BAD_POINTS"),
    "parse_length": (lambda d, at: parse_length("3em", d, at), "UNSUPPORTED_UNIT"),
    "map_stroke_attribute": (lambda d, at: map_stroke_attribute("stroke-linecap", "wide", 6, d, at), "BAD_ATTRIBUTE"),
    "resolve_gradient": (lambda d, at: resolve_gradient(ONE_STOP, d, at), "UNSUPPORTED_GRADIENT"),
    "resolve_fill_reference": (
        lambda d, at: resolve_fill_reference("url(#r)", DOCUMENT, d, at), "UNSUPPORTED_GRADIENT"
    ),
}

# The readers whose collector and location have no default: all of them.
REQUIRED = [parse_path_data, parse_transform_list, parse_view_box, parse_points, parse_length,
            map_stroke_attribute, resolve_gradient, resolve_fill_reference]


@pytest.mark.parametrize("name", READERS)
def test_the_fault_lands_in_the_given_collector(name):
    read, code = READERS[name]
    diagnostics = Diagnostics()
    read(diagnostics, "svg/here[0]")
    assert [(d.code, d.location) for d in diagnostics] == [(code, "svg/here[0]")]


def test_parse_svg_reports_into_the_given_collector():
    diagnostics = Diagnostics()
    assert parse_svg("<svg><bogus/></svg>", diagnostics).diagnostics is diagnostics
    assert diagnostics.codes() == ["UNKNOWN_ELEMENT"]


@pytest.mark.parametrize("reader", REQUIRED, ids=lambda reader: reader.__name__)
def test_collector_and_location_are_required(reader):
    parameters = inspect.signature(reader).parameters
    assert parameters["diagnostics"].default is inspect.Parameter.empty
    assert parameters["location"].default is inspect.Parameter.empty


def _makers(node, owner):
    """Where under node a Diagnostics is constructed: the innermost function, or the module."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = f"{owner.partition('.')[0]}.{node.name}"
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Diagnostics":
        yield owner
    for child in ast.iter_child_nodes(node):
        yield from _makers(child, owner)


def test_only_the_pipeline_and_the_parser_make_a_collector():
    makers = [
        maker for path in sorted(SRC.glob("*.py")) for maker in _makers(ast.parse(path.read_text()), path.stem)
    ]
    assert makers == ["pipeline.convert_text", "svg_dom.parse_svg"]



# One element per route by which mapping reports into the conversion's
# collector (_length, Paint.extend, place, map_path, map_use twice and
# parse_points), with the report it gives; the root's own is MISSING_VIEWBOX.
MAPPING_FAULTS = [
    ('<rect width="1em" height="1"/>', "UNSUPPORTED_UNIT", "svg/rect[1]@width"),
    ('<rect width="1" height="1" fill="url(#missing)"/>', "DANGLING_REF", "svg/rect[2]"),
    ('<rect width="1" height="1" transform="matrix(1 2 3 4 5 6)"/>', "UNSUPPORTED_TRANSFORM", "svg/rect[3]"),
    ('<path d="M 0 0 B 1 2"/>', "BAD_PATH", "svg/path[4]@d"),
    ('<use xlink:href="#missing"/>', "DANGLING_REF", "svg/use[5]"),
    ("<use/>", "MISSING_HREF", "svg/use[6]"),
    ('<polyline points="0,0 1,1 2"/>', "BAD_POINTS", "svg/polyline[7]"),
]


def test_map_document_reports_into_the_given_collector_only():
    body = "".join(element for element, _, _ in MAPPING_FAULTS)
    doc = parse_svg(f'<svg xmlns:xlink="http://www.w3.org/1999/xlink"><bogus/>{body}</svg>')
    parsed = list(doc.diagnostics)
    assert [d.code for d in parsed] == ["UNKNOWN_ELEMENT"]
    other = Diagnostics()
    assert map_document(doc, ConvertOptions(), other)[1] is other
    assert list(doc.diagnostics) == parsed
    assert [(d.code, d.location) for d in other] == [
        ("MISSING_VIEWBOX", "svg"), *((code, location) for _, code, location in MAPPING_FAULTS)
    ]

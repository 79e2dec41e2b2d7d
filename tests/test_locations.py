"""Diagnostic locations: how each step renders, and that a clean conversion renders none.

A location is the root string "svg" or a `diagnostics.Location` chain.
Each step keeps its name and its index (none for an attribute) and renders
"/name[index]" or "@name" only when `str()` joins the chain, which
`Diagnostics` does when it records a report.  `MapperContext.at(child,
index)` adds one child step per mapped element.
"""

import pytest

from svg2vml import convert_text
from svg2vml.diagnostics import Location
from svg2vml.svg_dom import SvgNode

from conftest import make_context, wrap_svg

RECT = SvgNode("rect", "rect")
GROUP = SvgNode("g", "g")


def test_the_root_is_plain_text():
    assert make_context().location == "svg"


@pytest.mark.parametrize(
    "location,text",
    [
        (Location("svg", "rect", 3), "svg/rect[3]"),
        (Location("svg", "width"), "svg@width"),
        (Location(Location("svg", "rect", 3), "width"), "svg/rect[3]@width"),
        (Location(Location(Location("svg", "g", 0), "g", 2), "circle", 0), "svg/g[0]/g[2]/circle[0]"),
        (Location(Location("svg", "svg:rect", 0), "xlink:href"), "svg/svg:rect[0]@xlink:href"),
    ],
    ids=["child", "attribute", "child-attribute", "nested", "names-as-given"],
)
def test_a_step_renders_from_its_name_and_index(location, text):
    assert str(location) == text


def test_at_adds_one_child_step_and_keeps_every_other_field():
    ctx = make_context()
    child = ctx.at(GROUP, 0).at(RECT, 2)
    assert str(child.location) == "svg/g[0]/rect[2]"
    assert child.depth == ctx.depth + 2
    for name in type(ctx).__slots__:
        if name not in ("location", "depth"):
            assert getattr(child, name) is getattr(ctx, name), name


def test_a_child_location_shares_its_parents_chain():
    ctx = make_context().at(GROUP, 1)
    first, second = ctx.at(RECT, 0).location, ctx.at(RECT, 1).location
    assert first.parent is second.parent is ctx.location
    assert (first.name, first.index, second.index) == ("rect", 0, 1)


def test_steps_under_a_use_copy_and_a_textpath():
    text = wrap_svg(
        '<defs><path id="p" d="M 0 0 L 5 5"/><g id="s"><rect width="1em" height="1"/></g></defs>'
        '<g><use xlink:href="#s"/></g>'
        '<text font-size="4"><textPath xlink:href="#p" transform="wobble(1)">t</textPath></text>'
    )
    assert [d.location for d in convert_text(text)[1]] == [
        "svg/defs[0]/g[1]/rect[0]@width",  # the target mapped in place
        "svg/g[1]/use[0]/rect[0]@width",  # its copy, a child of the use
        "svg/text[2]/textPath[0]@transform",
    ]


CLEAN = wrap_svg(
    '<defs><path id="track" d="M 0 0 L 50 20"/><g id="sym"><rect width="4" height="3"/></g></defs>'
    '<g fill="red" stroke="navy" stroke-width="2" opacity="0.5" transform="translate(3,4)">'
    '<rect x="1" y="2" width="10" height="5"/><circle cx="5" cy="5" r="4" stroke-linecap="round"/>'
    '<g stroke-opacity="0.5"><ellipse cx="2" cy="3" rx="6" ry="3"/><rect width="1" height="1" rx="0.5"/></g>'
    '</g>'
    '<use xlink:href="#sym" x="5" y="5" fill="blue"/>'
    '<text font-size="8"><textPath xlink:href="#track">on a path</textPath></text>'
)


@pytest.fixture
def renders(monkeypatch):
    """Counts the calls of Location.__str__ while a test runs; the original comes back after it."""
    calls = []
    original = Location.__str__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Location, "__str__", counting)
    return calls


def test_a_clean_conversion_renders_no_location(renders):
    output, diagnostics = convert_text(CLEAN)
    assert not len(diagnostics)
    assert all(tag in output for tag in ("v:roundrect", "v:oval", "v:textpath", "v:fill", "v:stroke"))
    assert renders == []


def test_a_report_renders_its_location_once(renders):
    _, diagnostics = convert_text(CLEAN.replace('r="4"', 'r="4em"'))
    assert [d.location for d in diagnostics] == ["svg/g[1]/circle[1]@r"]
    assert len(renders) == 1

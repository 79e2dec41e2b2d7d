"""Exactly one diagnostic per injected fault, across a whole conversion (ROADMAP item 20).

Each row injects one bad value, read by one reader, into an element that
converts with no diagnostic.  Drawn directly, the conversion must give
exactly one diagnostic, located at that element or one of its attributes.

The same element as a `defs` target that two `use`s name is reported once
at the original and once more under each use today, so those cases are
strict xfails: item 4's instance step turns each into a pass.  The viewBox
row sits on the root, which no use can name, so it has no such case.
"""

import pytest

from svg2vml import convert_text

from conftest import wrap_svg

CLEAN = {
    "rect": {"x": "1", "y": "2", "width": "4", "height": "3"},
    "polyline": {"points": "0,0 10,0 10,10"},
    "path": {"d": "M 0 0 L 10 10"},
}

# reader: (tag, attribute, bad value, the code it reports)
FAULTS = {
    "unit": ("rect", "x", "1em", "UNSUPPORTED_UNIT"),
    "points": ("polyline", "points", "0,0 10,0 10", "BAD_POINTS"),
    "path-group": ("path", "d", "M 0 0 L 1", "BAD_PATH"),
    "transform": ("rect", "transform", "skew(3)", "BAD_TRANSFORM"),
    "paint-reference": ("rect", "fill", "url(#missing)", "DANGLING_REF"),
    "opacity": ("rect", "opacity", "lots", "BAD_ATTRIBUTE"),
    "stroke-width": ("rect", "stroke-width", "-1", "BAD_ATTRIBUTE"),
}

ITEM_4 = "item 4: a use target's fault is reported at the original and again under each use"


def element(tag: str, **attributes: str) -> str:
    return f"<{tag} {' '.join(f'{name}={value!r}' for name, value in attributes.items())}/>"


def reports(text: str) -> list[tuple[str, str]]:
    return [(d.code, d.location) for d in convert_text(text)[1]]


def assert_one_report_at(text: str, code: str, path: str) -> None:
    found = reports(text)
    assert len(found) == 1, found
    assert found[0][0] == code
    assert found[0][1].partition("@")[0] == path


def used_twice(target: str) -> str:
    return f'<defs>{target}</defs><use xlink:href="#t"/><use xlink:href="#t"/>'


@pytest.mark.parametrize("tag", CLEAN)
def test_each_clean_element_gives_no_diagnostic_drawn_or_used(tag):
    assert reports(wrap_svg(element(tag, **CLEAN[tag]))) == []
    assert reports(wrap_svg(used_twice(element(tag, id="t", **CLEAN[tag])))) == []


@pytest.mark.parametrize("reader", FAULTS)
def test_a_fault_drawn_directly_gives_one_diagnostic(reader):
    tag, name, value, code = FAULTS[reader]
    assert_one_report_at(wrap_svg(element(tag, **{**CLEAN[tag], name: value})), code, f"svg/{tag}[0]")


def test_a_bad_view_box_gives_one_diagnostic():
    assert_one_report_at(wrap_svg("", view_box="0 0 1"), "BAD_VIEWBOX", "svg")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4)
@pytest.mark.parametrize("reader", FAULTS)
def test_a_fault_in_a_target_used_twice_gives_one_diagnostic(reader):
    tag, name, value, code = FAULTS[reader]
    faulty = used_twice(element(tag, id="t", **{**CLEAN[tag], name: value}))
    assert_one_report_at(wrap_svg(faulty), code, f"svg/defs[0]/{tag}[0]")

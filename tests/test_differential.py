"""The differential check (tools/differential.py): its fragment generator and its classifier."""

import importlib.util
import re
from pathlib import Path

import pytest

from svg2vml import convert_text

_SPEC = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parent.parent / "tools" / "differential.py"
)
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


def test_fragments_are_the_same_for_the_same_seed():
    first = differential.build_fragments(7, 64)
    assert first == differential.build_fragments(7, 64)
    assert first != differential.build_fragments(8, 64)


def test_every_family_is_drawn_in_turn():
    families = [family for family, _, _ in differential.build_fragments(1, 2 * len(differential.FRAGMENT_FAMILIES))]
    assert families == 2 * list(differential.FRAGMENT_FAMILIES)


def _family(family, seed, count):
    return [text for drawn, _, text in differential.build_fragments(seed, count) if drawn == family]


def test_the_copies_family_is_the_same_for_the_same_seed():
    first = _family("copies", 3, 120)
    assert len(first) == 10
    assert first == _family("copies", 3, 120)
    assert first != _family("copies", 4, 120)


def test_the_copies_family_leaves_the_other_families_their_fragments(monkeypatch):
    drawn = [(family, text) for family, _, text in differential.build_fragments(5, 48) if family != "copies"]
    others = tuple(family for family in differential.FRAGMENT_FAMILIES if family != "copies")
    monkeypatch.setattr(differential, "FRAGMENT_FAMILIES", others)
    assert drawn == [(family, text) for family, _, text in differential.build_fragments(5, 44)]


@pytest.mark.parametrize(
    "pattern",
    [r'<div xmlns="http://www.w3.org/1999/xhtml">\s+<b>', r"</(b|i|span)>\s+<(b|i|span)>", r"</(b|i|span)><(b|i|span)>"],
    ids=["white-space-before-a-first-child", "white-space-tail", "adjacent-elements"],
)
def test_foreign_content_draws_white_space_and_adjacent_elements(pattern):
    assert re.search(pattern, "".join(text for _, _, text in differential.build_fragments(1, 240)))


@pytest.mark.parametrize("seed", [1, 2])
def test_only_the_malformed_family_is_malformed(seed):
    for family, name, text in differential.build_fragments(seed, 80):
        if family != "malformed-with-undeclared-prefix":
            assert "MALFORMED_XML" not in convert_text(text)[1].codes(), name


# --- classify, on hand-made result pairs ------------------------------------------


def results(digest="aaaa", lines=(), strict=None):
    """One document's runs at every setting: the same output and diagnostics
    at each, or at the strict settings the run given as strict."""
    return [
        strict if strict is not None and name.endswith("+strict") else [digest, list(lines)]
        for name in differential.SETTING_NAMES
    ]


def test_classify_changed_bytes_only():
    assert differential.classify(results("aaaa"), results("bbbb")) == {"bytes": "default: output aaaa -> bbbb"}


@pytest.mark.parametrize(
    "old,new",
    [
        ("error BAD_PATH: old words @svg/path[0]@d", "error BAD_PATH: new words @svg/path[0]@d"),
        ("warning DUPLICATE_ID: duplicate id 'a'; first", "warning DUPLICATE_ID: duplicate id 'b'; first"),
    ],
    ids=["located", "no-location"],
)
def test_classify_a_changed_message_at_the_same_location(old, new):
    code = old.split(" ")[1].rstrip(":")
    assert differential.classify(results(lines=[old]), results(lines=[new])) == {f"~{code}": f"default: {old}"}


def test_classify_the_same_code_at_another_location_is_gone_and_new():
    old = results(lines=["error BAD_PATH: words @svg/path[0]@d"])
    new = results(lines=["error BAD_PATH: words @svg/path[1]@d"])
    assert differential.classify(old, new) == {
        "-BAD_PATH": "default: error BAD_PATH: words @svg/path[0]@d",
        "+BAD_PATH": "default: error BAD_PATH: words @svg/path[1]@d",
    }


def test_classify_a_new_code_with_its_bytes():
    kept = "warning MISSING_VIEWBOX: svg has no viewBox; coordinate system defaults @svg"
    came = "warning UNSUPPORTED_ATTRIBUTE: fill on a text has no VML mapping and is ignored @svg/text[0]"
    classes = differential.classify(results("aaaa", [kept]), results("bbbb", [kept, came]))
    assert classes == {"+UNSUPPORTED_ATTRIBUTE": f"default: {came}", "bytes": "default: output aaaa -> bbbb"}


@pytest.mark.parametrize(
    "old,new,kind",
    [
        (["raised ValueError"], ["aaaa", []], "raised: raised ValueError -> returned"),
        (["aaaa", []], ["raised KeyError"], "raised: returned -> raised KeyError"),
        (["raised ValueError"], ["raised KeyError"], "raised: raised ValueError -> raised KeyError"),
    ],
    ids=["raised-returned", "returned-raised", "raised-raised"],
)
def test_classify_returned_against_raised(old, new, kind):
    old_results = [old] * len(differential.SETTING_NAMES)
    new_results = [new] * len(differential.SETTING_NAMES)
    assert differential.classify(old_results, new_results) == {kind: "default"}


def test_classify_malformed_xml_that_now_parses_is_one_class():
    malformed = "error MALFORMED_XML: not well-formed XML: mismatched tag: line 1, column 9"
    parsed = ["warning MISSING_VIEWBOX: svg has no viewBox; coordinate system defaults @svg"]
    classes = differential.classify(results(None, [malformed]), results("aaaa", parsed))
    assert list(classes) == ["parses now, was MALFORMED_XML"]
    assert malformed in classes["parses now, was MALFORMED_XML"]


def test_classify_a_difference_at_strict_settings_only():
    old = results(strict=[None, ["error BAD_PATH: words @svg/path[0]@d"]])
    new = results(strict=["raised ValueError"])
    assert differential.classify(old, new) == {"strict raised: returned -> raised ValueError": "default+strict"}


def test_classify_more_strict_errors_as_the_lenient_ones():
    first = "error UNKNOWN_ELEMENT: unsupported element <blink> @svg/blink[0]"
    second = "error UNSUPPORTED_UNIT: unsupported length unit 'em' in '1em' @svg/rect[1]@width"
    old = results(strict=[None, [first]])
    new = results(strict=[None, [first, second]])
    assert differential.classify(old, new) == {"strict +UNSUPPORTED_UNIT": f"default+strict: {second}"}


def test_classify_a_repeated_line():
    line = "warning DUPLICATE_ID: duplicate id 'a'; first occurrence wins"
    classes = differential.classify(results(lines=[line]), results(lines=[line, line]))
    assert list(classes) == ["repeats"]

"""The XHTML passthrough as a round trip (ROADMAP item 21): its output, parsed again, gives the input's tree.

The documents are a fixed slice of `tools/differential.py`'s seeded
fragments, every family included.  Both trees come from `parse_svg` and
compare by `TreeNode.__eq__`; the root's own tail lies outside the drawing
and is left out.  Compact output must give the tree back as parsed.
Pretty output adds indentation as text, so there white-space-only text and
tails outside a `text` element are stripped on both sides first.  An input
with no tree must give no output.

The fragments that do not round-trip today are listed by id, each a strict
xfail: item 21's mend turns each into a pass, and a new loss fails the test
of its family.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from svg2vml import ConvertOptions, convert_text
from svg2vml.svg_dom import parse_svg

_SPEC = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parent.parent / "tools" / "differential.py"
)
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)

SEED = 7
COUNT = 720  # 60 fragments of each family

FRAGMENTS: dict[str, list[tuple[str, str]]] = defaultdict(list)
TEXTS: dict[str, str] = {}
for _family, _name, _text in differential.build_fragments(SEED, COUNT):
    FRAGMENTS[_family].append((_name, _text))
    TEXTS[_name] = _text

# Compact output writes an element whose character data is only white space
# as a block, so white space between the children of a `text` is lost.
COMPACT_FAILURES = {"host-page-145"}
# Pretty output also indents the children of a `text`, which adds text there.
PRETTY_FAILURES = {
    "host-page-145", "transforms-44", "transforms-68", "transforms-92", "transforms-116", "transforms-128",
    "transforms-152", "transforms-236", "transforms-284", "transforms-404", "transforms-548", "transforms-560",
    "transforms-572", "transforms-680", "transforms-704", "transforms-716",
}
ITEM_21 = "ROADMAP item 21: the XHTML passthrough loses white space inside a text element"


def _strip_white_space(node, inside_text=False):
    """Drop white-space-only text and tails outside `text` elements, in place."""
    inside_text = inside_text or node.tag == "text"
    if not inside_text and node.text is not None and not node.text.strip():
        node.text = None
    for child in node.children:
        _strip_white_space(child, inside_text)
        if not inside_text and child.tail is not None and not child.tail.strip():
            child.tail = None


def tree(text, pretty):
    doc = parse_svg(text)
    if doc is None:
        return None
    doc.root.tail = None
    if pretty:
        _strip_white_space(doc.root)
    return doc.root


def round_trips(text, pretty):
    output, _ = convert_text(text, ConvertOptions(mode="xhtml", pretty=pretty))
    expected = tree(text, pretty)
    if expected is None:
        return output is None
    return output is not None and tree(output, pretty) == expected


def test_the_slice_holds_every_family_and_each_listed_failure():
    assert sorted(FRAGMENTS) == sorted(differential.FRAGMENT_FAMILIES)
    assert COMPACT_FAILURES <= PRETTY_FAILURES <= TEXTS.keys()


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("family", differential.FRAGMENT_FAMILIES)
def test_output_reparses_to_the_input_tree(family, pretty):
    known = PRETTY_FAILURES if pretty else COMPACT_FAILURES
    differing = [name for name, text in FRAGMENTS[family] if name not in known and not round_trips(text, pretty)]
    assert differing == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_21)
@pytest.mark.parametrize("name", sorted(COMPACT_FAILURES))
def test_compact_failure_of_today(name):
    assert round_trips(TEXTS[name], pretty=False)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_21)
@pytest.mark.parametrize("name", sorted(PRETTY_FAILURES))
def test_pretty_failure_of_today(name):
    assert round_trips(TEXTS[name], pretty=True)


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("value", ["a&amp;b", "a&lt;b", "a&gt;b", "a&quot;b", "&quot;&amp;&lt;&gt;'"])
def test_a_value_that_needs_escaping_round_trips(value, pretty):
    # The fragments draw no such value; each head tests for these four characters inline.
    assert round_trips(f'<svg><g id="{value}"><rect class="{value}"/></g><circle r="1" id="{value}"/></svg>', pretty)


# Written raw, a tab, line feed or carriage return in a value is normalised
# to a space by any XML reader, and a carriage return in text to a line feed.
CONTROL_CHARACTERS = "ROADMAP item 21: control characters from character references are written raw"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=CONTROL_CHARACTERS)
@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("reference", ["&#9;", "&#10;", "&#13;"])
def test_a_control_character_in_a_value_round_trips(reference, pretty):
    assert round_trips(f'<svg><rect id="p{reference}q" width="1" height="1"/></svg>', pretty)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=CONTROL_CHARACTERS)
@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
def test_a_carriage_return_in_text_round_trips(pretty):
    assert round_trips('<svg><text x="1" y="9">a&#13;b</text></svg>', pretty)

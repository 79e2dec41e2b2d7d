"""Byte-exact goldens for path data, point lists, transforms and their diagnostics.

Each fixture `tests/golden/<name>.svg` is converted in VML mode at the
default settings, pretty-printed and at precision 2; the output must equal
`<name>.<setting>.html` byte for byte, and the diagnostics (code, message,
location, order) must equal `<name>.diagnostics.txt` at every VML setting.
The XHTML passthrough of the same fixture, plain and pretty-printed, must
equal `<name>.xhtml.html` and `<name>.xhtml-pretty.html`, with the
parse-side diagnostics in `<name>.xhtml.diagnostics.txt`.

The transform fixtures put one element of every family under each single
transform (`transform_single`) and under every ordered pair of transform
kinds plus malformed lists (`transform_multi`); `structure` covers nested
group chains, `use`, `textPath`, mixed-content `foreignObject` and
`fill="none"` with a translation.  `locations` pins the tree-path location
of every diagnostic kind the other fixtures miss: a bad unit on each length
attribute, bad `viewBox`, `points`, `transform` and `d`, an unknown element
three groups deep, errors inside `use` and `textPath` targets (reported at
the `use`/`text` path) and duplicate ids, which come after every parse-time
warning.  `presentation` pins the paint diagnostics: `fill-opacity` on every
drawn shape, a `path` without `d`, `fill` URLs without `#`, gradients with a
stop lacking `stop-color` or `offset` and unparseable axis coordinates, plus
the positions the box shapes, text and `foreignObject` write under a
transform (rounded values, absent ones, the root size from `width` and the
`viewBox` height).  `parsing` pins the reader on an XHTML host page with
the drawing nested below it: `xlink` bound to another prefix on the host
root, `xml:space`/`xml:lang`, two prefixed names reducing to one, comments,
processing instructions, CDATA and entities in text and tails, foreign
content, unknown elements nested three deep, duplicate ids, a nested `svg`
and a second top-level drawing that is ignored.
"""

from pathlib import Path

import pytest

from svg2vml import ConvertOptions, convert_text

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = (
    "paths",
    "path_rejects",
    "transform_single",
    "transform_multi",
    "structure",
    "locations",
    "presentation",
    "parsing",
)
SETTINGS = (
    ("default", ConvertOptions()),
    ("precision2", ConvertOptions(precision=2)),
    ("pretty", ConvertOptions(pretty=True)),
)
XHTML_SETTINGS = (
    ("xhtml", ConvertOptions(mode="xhtml")),
    ("xhtml-pretty", ConvertOptions(mode="xhtml", pretty=True)),
)


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("suffix,options", SETTINGS, ids=[s for s, _ in SETTINGS])
def test_output_matches_golden(name, suffix, options):
    output, diagnostics = convert_text((GOLDEN / f"{name}.svg").read_text(), options)
    assert output == (GOLDEN / f"{name}.{suffix}.html").read_text()
    recorded = "".join(f"{diagnostic}\n" for diagnostic in diagnostics)
    assert recorded == (GOLDEN / f"{name}.diagnostics.txt").read_text()


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("suffix,options", XHTML_SETTINGS, ids=[s for s, _ in XHTML_SETTINGS])
def test_passthrough_matches_golden(name, suffix, options):
    output, diagnostics = convert_text((GOLDEN / f"{name}.svg").read_text(), options)
    assert output == (GOLDEN / f"{name}.{suffix}.html").read_text()
    recorded = "".join(f"{diagnostic}\n" for diagnostic in diagnostics)
    assert recorded == (GOLDEN / f"{name}.xhtml.diagnostics.txt").read_text()


STRICT_CASES = (
    (
        (GOLDEN / "locations.svg").read_text(),
        "error UNKNOWN_ELEMENT: unsupported element <blink> @svg/g[2]/g[0]/g[6]/blink[0]",
    ),
    (
        '<svg viewBox="0 0 9 9"><g><a href="#"><rect width="1" height="1"/><rect x="2pt" width="1" height="1"/></a></g></svg>',
        "error UNSUPPORTED_UNIT: unsupported length unit 'pt' in '2pt' @svg/g[0]/a[0]/rect[1]@x",
    ),
)


@pytest.mark.parametrize("text,first", STRICT_CASES, ids=["parse", "map"])
def test_strict_mode_stops_at_the_first_location(text, first):
    output, diagnostics = convert_text(text, ConvertOptions(strict=True))
    assert output is None
    assert [str(diagnostic) for diagnostic in diagnostics] == [first]

"""Byte-exact goldens for path data, point lists, transforms and their diagnostics.

Each fixture `tests/golden/<name>.svg` is converted by the command line,
`svg2vml.cli.run`, in-process: in VML mode at the default settings,
pretty-printed and at precision 2, written through `-o` to a file; the
output must equal `<name>.<setting>.html` byte for byte, and stderr, the
diagnostics (code, message, location, order), must equal
`<name>.diagnostics.txt` at every VML setting.  The XHTML passthrough of
the same fixture, plain and pretty-printed, is written to stdout and must
equal `<name>.xhtml.html` and `<name>.xhtml-pretty.html`, with the
parse-side diagnostics in `<name>.xhtml.diagnostics.txt`.  Every run exits
with 1 exactly when its diagnostics hold an error, else 0.

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
from svg2vml.cli import run

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
    ("default", []),
    ("precision2", ["--precision", "2"]),
    ("pretty", ["--pretty"]),
)
XHTML_SETTINGS = (
    ("xhtml", ["--mode", "xhtml"]),
    ("xhtml-pretty", ["--mode", "xhtml", "--pretty"]),
)


def check_run(name: str, flags: list[str], destination: str, diagnostics_name: str, capsysbinary) -> bytes:
    """Run the CLI on a fixture and check its stderr and exit status; returns its stdout."""
    code = run(["convert", str(GOLDEN / f"{name}.svg"), *flags, "-o", destination])
    captured = capsysbinary.readouterr()
    expected_diagnostics = (GOLDEN / diagnostics_name).read_bytes()
    assert captured.err == expected_diagnostics
    assert code == (1 if any(line.startswith(b"error ") for line in expected_diagnostics.splitlines()) else 0)
    return captured.out


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("suffix,flags", SETTINGS, ids=[s for s, _ in SETTINGS])
def test_output_matches_golden(name, suffix, flags, tmp_path, capsysbinary):
    output = tmp_path / "out.html"
    assert check_run(name, flags, str(output), f"{name}.diagnostics.txt", capsysbinary) == b""
    assert output.read_bytes() == (GOLDEN / f"{name}.{suffix}.html").read_bytes()


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("suffix,flags", XHTML_SETTINGS, ids=[s for s, _ in XHTML_SETTINGS])
def test_passthrough_matches_golden(name, suffix, flags, capsysbinary):
    output = check_run(name, flags, "-", f"{name}.xhtml.diagnostics.txt", capsysbinary)
    assert output == (GOLDEN / f"{name}.{suffix}.html").read_bytes()


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
def test_strict_mode_lists_every_location_as_an_error(text, first):
    output, diagnostics = convert_text(text, ConvertOptions(strict=True))
    assert output is None
    assert str(diagnostics.items[0]) == first
    lenient = [diagnostic._replace(severity="error") for diagnostic in convert_text(text)[1]]
    assert diagnostics.items == lenient

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
`fill="none"` with a translation.
"""

from pathlib import Path

import pytest

from svg2vml import ConvertOptions, convert_text

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("paths", "path_rejects", "transform_single", "transform_multi", "structure")
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

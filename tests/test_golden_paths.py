"""Byte-exact goldens for path data, point lists and their diagnostics.

Each fixture `tests/golden/<name>.svg` is converted at the default settings
and at precision 2; the output must equal `<name>.default.html` and
`<name>.precision2.html` byte for byte, and the diagnostics (code, message,
location, order) must equal `<name>.diagnostics.txt` at both precisions.
"""

from pathlib import Path

import pytest

from svg2vml import ConvertOptions, convert_text

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("paths", "path_rejects")
SETTINGS = (("default", ConvertOptions()), ("precision2", ConvertOptions(precision=2)))


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("suffix,options", SETTINGS, ids=[s for s, _ in SETTINGS])
def test_output_matches_golden(name, suffix, options):
    output, diagnostics = convert_text((GOLDEN / f"{name}.svg").read_text(), options)
    assert output == (GOLDEN / f"{name}.{suffix}.html").read_text()
    recorded = "".join(f"{diagnostic}\n" for diagnostic in diagnostics)
    assert recorded == (GOLDEN / f"{name}.diagnostics.txt").read_text()


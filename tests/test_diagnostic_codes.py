"""Every diagnostic code the package emits is documented in README.md.

The codes are found as string literals passed to `Diagnostics.warning`,
`Diagnostics.error` or `Diagnostic(severity, code, ...)` in the package
source; README lists each in its diagnostic table with its severity.  So
that the scan sees every code, each `.warning(`/`.error(` call outside
`diagnostics.py` names its code as a string literal.
"""

import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_CALL = re.compile(r'(?:\.(warning|error)|Diagnostic)\(\s*(?:"(warning|error)",\s*)?"([A-Z][A-Z_]+)"')
REPORT_CALL = re.compile(r'\.(?:warning|error)\((?!\s*")')
TABLE_ROW = re.compile(r"^\| `([A-Z][A-Z_]+)` \| ([^|]+) \|", re.MULTILINE)


def emitted() -> dict[str, set[str]]:
    severities = defaultdict(set)
    for path in sorted((ROOT / "src" / "svg2vml").glob("*.py")):
        for method, severity, code in CODE_CALL.findall(path.read_text()):
            severities[code].add(method or severity)
    return severities


def documented() -> dict[str, str]:
    return dict(TABLE_ROW.findall((ROOT / "README.md").read_text()))


def test_every_emitted_code_is_documented():
    codes = emitted()
    assert len(codes) >= 22
    assert sorted(set(codes) - set(documented())) == []


def test_every_documented_code_is_emitted():
    assert sorted(set(documented()) - set(emitted())) == []


def test_documented_severity_names_every_emitted_severity():
    table = documented()
    missing = {
        code: sorted(severity for severity in severities if severity not in table.get(code, ""))
        for code, severities in emitted().items()
    }
    assert {code: names for code, names in missing.items() if names} == {}


def test_every_report_names_its_code_as_a_literal():
    unnamed = []
    for path in sorted((ROOT / "src" / "svg2vml").glob("*.py")):
        if path.name == "diagnostics.py":
            continue
        text = path.read_text()
        unnamed += [f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}" for match in REPORT_CALL.finditer(text)]
    assert unnamed == []

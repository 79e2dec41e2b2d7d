"""The output ledger: every ledger fragment converts to the digest recorded for it.

tests/golden/ledger.txt holds one line per fragment that
`tools/differential.py` draws for it: family, name and 16 hex digits of a
sha256 over the output and the diagnostic text at the ten golden settings
(the five of the goldens, strict off and on).  A refactor leaves every line
as it is; a behaviour change rewrites the file in its own commit with
`python tools/differential.py --write-ledger`.  A digest cannot say what
changed, so the failure names the fragments, grouped by family, and
`tools/differential.py --against` classifies them.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parent.parent / "tools" / "differential.py"
)
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


def _by_name(lines):
    return {line.split(" ")[1]: line for line in lines}


def test_every_ledger_fragment_converts_as_recorded():
    recorded = _by_name(differential.LEDGER.read_text().splitlines())
    convert = differential.local_converter()
    current = _by_name(
        differential.ledger_line(family, name, convert(text)) for family, name, text in differential.ledger_fragments()
    )
    changed = defaultdict(list)
    for name in [*recorded, *(name for name in current if name not in recorded)]:
        if recorded.get(name) != current.get(name):
            changed[name.rsplit("-", 1)[0]].append(name)
    summary = "; ".join(f"{family} {len(names)}: {', '.join(names[:8])}" for family, names in changed.items())
    assert not changed, (
        f"ledger lines differ ({summary}); classify them with `python tools/differential.py --against <base>`, "
        "and rewrite the ledger with --write-ledger only in a behaviour change's own commit"
    )


def test_a_malformed_xml_message_enters_the_digest_as_its_code():
    def runs(message):
        return [[None, [f"error MALFORMED_XML: not well-formed XML: {message}"]]] * len(differential.SETTING_NAMES)

    first = differential.ledger_line("f", "f-0", runs("mismatched tag: line 1, column 9"))
    assert first == differential.ledger_line("f", "f-0", runs("syntax error: line 1, column 9"))
    other = [[None, ["error NO_SVG_ROOT: no <svg> element found in input"]]] * len(differential.SETTING_NAMES)
    assert first != differential.ledger_line("f", "f-0", other)

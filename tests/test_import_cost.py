"""What `import svg2vml` loads into a fresh interpreter.

Every batch conversion starts an interpreter, so the package keeps heavy
standard modules out of its import: `dataclasses` alone pulls in `inspect`,
`ast`, `dis` and `tokenize`.  A child run with `-I` and `src` on its path
imports the package and converts a tiny document; its modules are compared
with those of a bare `-I` child, so that the host's `site` hooks cancel out.

Each named-tuple definition evaluates a generated `__new__`, about 0.1 ms
apiece, so only the exported value types are named tuples; internal values
are plain tuples or `__slots__` classes.  `ConvertOptions` subclasses the
named tuple `_Options`, so four definitions make five classes.

Neither `typing` nor the `xml` package is imported, the CLI included: the
named tuples come from `collections`, annotations are `X | None` strings and
`collections.abc` names, and the parser is `pyexpat` itself.  A host's
`site` hooks may import `typing` on their own, so that child also runs
with `-S`.

Each regex compiled at import costs the set-up too, so only two patterns are
module-level `re.Pattern` objects: `numeric.NUMBER_RE`, the one number
grammar, and `transform._FUNCTION_RE`, which splits a transform list into
calls.  The path and number-list readers gate and split with `str.translate`
tables instead, and `path_data` does not import `re` at all.  Patterns that
only word a fault are strings, compiled through `re`'s cache on first use.
"""

import subprocess
import sys
from pathlib import Path
from xml.parsers import expat

from svg2vml import path_data, svg_dom

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_LOADED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "svg2vml.cli"}

NAMED_TUPLES = ["ConvertOptions", "Diagnostic", "SvgDocument", "ViewBox", "_Options"]

# One entry per module-level re.Pattern object: every module-level name bound to it.
PATTERNS = [
    ["numeric.NUMBER_RE", "path_data.NUMBER_RE", "svg_dom.NUMBER_RE", "transform.NUMBER_RE"],
    ["transform._FUNCTION_RE"],
]

CONVERT = """
sys.path.insert(0, sys.argv[1])
import svg2vml
output, diagnostics = svg2vml.convert_text('<svg viewBox="0 0 2 2" width="2" height="2"><rect width="1" height="1"/></svg>')
assert output and not len(diagnostics)
"""


def loaded_modules(code: str, *flags: str) -> set[str]:
    child = subprocess.run(
        [sys.executable, "-I", *flags, "-c", f"import sys\n{code}\nprint(' '.join(sys.modules))", str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(child.stdout.split())


# Every tuple subclass that the package's modules define, with the named tuple's _fields.
NAMED = """
sys.path.insert(0, sys.argv[1])
import svg2vml, svg2vml.cli

def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)

print(" ".join(sorted(
    cls.__qualname__ for cls in subclasses(tuple) if cls.__module__.startswith("svg2vml") and hasattr(cls, "_fields")
)))
"""


def test_only_the_exported_value_types_are_named_tuples():
    child = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys\n{NAMED}", str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert child.stdout.split() == NAMED_TUPLES


# Every re.Pattern that the package's modules bind, with the names bound to it, one per line.
BOUND_PATTERNS = """
import re
sys.path.insert(0, sys.argv[1])
import svg2vml, svg2vml.cli

bound = {}
for module_name, module in sorted(sys.modules.items()):
    if module_name.startswith("svg2vml."):
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                bound.setdefault(id(value), []).append(f"{module_name[len('svg2vml.'):]}.{name}")
for names in sorted(map(sorted, bound.values())):
    print(" ".join(names))
"""


def test_only_two_patterns_are_compiled_at_import():
    child = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys\n{BOUND_PATTERNS}", str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert [line.split() for line in child.stdout.splitlines()] == PATTERNS
    assert "re" not in vars(path_data)


def test_import_loads_no_heavy_module():
    added = loaded_modules(CONVERT) - loaded_modules("")
    assert "svg2vml.pipeline" in added
    assert sorted(added & NOT_LOADED) == []


def test_neither_typing_nor_the_xml_package_is_imported():
    loaded = loaded_modules(CONVERT + "import svg2vml.cli", "-S")
    assert {"svg2vml.pipeline", "svg2vml.cli", "pyexpat"} <= loaded
    assert sorted(loaded & {"typing", "xml", "xml.parsers", "xml.parsers.expat"}) == []


def test_the_parser_module_is_the_one_xml_parsers_expat_re_exports():
    assert svg_dom.expat.ExpatError is expat.ExpatError
    assert svg_dom.expat.ParserCreate is expat.ParserCreate

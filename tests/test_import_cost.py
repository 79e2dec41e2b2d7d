"""What `import svg2vml` loads into a fresh interpreter.

Every batch conversion starts an interpreter, so the package keeps heavy
standard modules out of its import: `dataclasses` alone pulls in `inspect`,
`ast`, `dis` and `tokenize`.  A child run with `-I` and `src` on its path
imports the package and converts a tiny document; its modules are compared
with those of a bare `-I` child, so that the host's `site` hooks cancel out.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_LOADED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "svg2vml.cli"}

CONVERT = """
sys.path.insert(0, sys.argv[1])
import svg2vml
output, diagnostics = svg2vml.convert_text('<svg viewBox="0 0 2 2" width="2" height="2"><rect width="1" height="1"/></svg>')
assert output and not len(diagnostics)
"""


def loaded_modules(code: str) -> set[str]:
    child = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys\n{code}\nprint(' '.join(sys.modules))", str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(child.stdout.split())


def test_import_loads_no_heavy_module():
    added = loaded_modules(CONVERT) - loaded_modules("")
    assert "svg2vml.pipeline" in added
    assert sorted(added & NOT_LOADED) == []

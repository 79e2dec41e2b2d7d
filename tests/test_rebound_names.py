"""The names the benchmark's traced run rebinds by name must stay in use.

perfbench/spans.py wraps module attributes by name for the length of a
traced pass, so a wrapper only measures work if the converter looks the name
up where spans.py rebinds it.

- Called: mapping calls `mappers.parse_path_data`, `to_absolute`,
  `emit_vml_path`, `parse_transform_list`, `format_number` and
  `MapperContext.at`.  A counting wrapper on each must see a call while one
  small document converts, so a refactor that bypasses one of them fails
  here rather than leaving its metric at 0.
- Pinned: `mappers.shift_commands`, `compose_ctm` and
  `resolve_fill_reference`, and `format_number` in `path_data`, `transform`
  and `style`, are not called through those names while mapping.  They stay
  bound only so that the traced benchmark can rebind them; an import that
  looks unused could otherwise be removed and the traced run would crash.
- Traced pipeline: perfbench/run.py's `Bench.pipeline` repeats
  convert_text's steps so it can time each stage.  With a stage that does
  nothing, it must give convert_text's output and diagnostics on a
  transform_tree and a passthrough document.
"""

import contextlib
import sys
from pathlib import Path

import pytest

import svg2vml
from svg2vml import convert_text, mappers, path_data, style, transform

from conftest import wrap_svg

# perfbench/run.py imports its sibling modules by name, so their directory goes on the path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as perfbench_run  # noqa: E402

CALLED = [
    (mappers, name)
    for name in ("parse_path_data", "to_absolute", "emit_vml_path", "parse_transform_list", "format_number")
] + [(mappers.MapperContext, "at")]

PINNED = [(module, "format_number") for module in (path_data, transform, style)] + [
    (mappers, name) for name in ("shift_commands", "compose_ctm", "resolve_fill_reference")
]

DOCUMENT = wrap_svg(
    '<g transform="translate(5,5)">'
    '<path transform="translate(1,2)" d="M 0 0 l 10 10 h 5 z"/>'
    '<rect transform="scale(2)" x="1" y="2" width="3" height="4"/>'
    "</g>"
)


def _ids(names):
    return [f"{owner.__name__}.{name}" for owner, name in names]


@pytest.mark.parametrize("owner,name", CALLED, ids=_ids(CALLED))
def test_mapping_calls_the_rebound_name(owner, name, monkeypatch):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    output, diagnostics = convert_text(DOCUMENT)
    assert not len(diagnostics)
    assert "v:shape" in output and "v:roundrect" in output
    assert calls


@pytest.mark.parametrize("owner,name", CALLED + PINNED, ids=_ids(CALLED + PINNED))
def test_rebound_name_exists_and_is_callable(owner, name):
    assert callable(getattr(owner, name, None))


@pytest.mark.parametrize("workload", ["transform_tree", "passthrough"])
def test_the_traced_pipeline_converts_as_convert_text_does(workload):
    bench = perfbench_run.Bench(svg2vml, perfbench_run.build_corpus(workload, 1))
    text = bench.corpus.documents[0].text
    output, diagnostics, parsed, tree = bench.pipeline(text, contextlib.nullcontext)
    expected, expected_diagnostics = convert_text(text, bench.options)
    assert output is not None and output == expected
    assert diagnostics.items == expected_diagnostics.items
    assert parsed is not None and (tree is None) == (workload == "passthrough")

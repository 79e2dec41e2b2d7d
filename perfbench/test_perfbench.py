"""Tests of the benchmark itself: corpus determinism, the oracle, span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import oracle
from spans import Span, Tracer, installed, self_times

from svg2vml import ConvertOptions, convert_text
from svg2vml import mappers

BENCH_DIR = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first, again, other = (corpus.build_corpus(workload, seed) for seed in (7, 7, 8))
    assert [(d.text, d.expected) for d in first.documents] == [(d.text, d.expected) for d in again.documents]
    assert [d.text for d in first.documents] != [d.text for d in other.documents]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_document_converts_strictly_and_passes_the_oracle(workload, seed):
    built = corpus.build_corpus(workload, seed)
    options = ConvertOptions(mode=built.mode, pretty=built.pretty, strict=True)
    for doc in built.documents:
        output, diagnostics = convert_text(doc.text, options)
        assert diagnostics.codes() == [], doc.doc_id
        assert oracle.check_output(output, doc.expected) is None, doc.doc_id


def test_oracle_rejects_wrong_counts_non_numbers_and_bad_xml():
    output = '<html xmlns:v="urn:schemas-microsoft-com:vml"><body><v:group><v:oval style="left:1"/></v:group></body></html>'
    assert oracle.check_output(output, {"v:group": 1, "v:oval": 1}) is None
    assert "tag counts" in oracle.check_output(output, {"v:group": 1, "v:oval": 2})
    assert "non-number" in oracle.check_output(output.replace("left:1", "left:inf"), {"v:group": 1, "v:oval": 1})
    assert "re-parse" in oracle.check_output(output[:-7], {"v:group": 1, "v:oval": 1})


def test_supported_follows_the_strategy_table():
    assert corpus.supported(corpus.SKEW_PATH, ["scale", "translate"])
    assert not corpus.supported(corpus.SKEW_PATH, ["scale", "rotate"])
    assert corpus.supported(corpus.MATRIX_FILTER, ["translate"])
    assert not corpus.supported(corpus.MATRIX_FILTER, ["scale", "translate"])
    assert not corpus.supported(corpus.SKEW_SHAPE, ["matrix"])
    assert corpus.supported(corpus.RECALC_POINTS, ["rotate", "matrix", "skewX"])


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("map", 0.0, 10.0, -1, "d"),
        Span("a", 1.0, 3.0, 0, "d"),
        Span("b", 2.0, 5.0, 0, "d"),  # overlaps a: together they cover 1..5
        Span("c", 8.0, 12.0, 0, "d"),  # runs past the parent: only 8..10 counts
        Span("c.child", 8.5, 9.0, 3, "d"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.5, 0.5])


def test_installed_wrappers_record_and_are_removed():
    originals = (mappers.parse_path_data, mappers.format_number, mappers.MapperContext.at)
    tracer = Tracer()
    built = corpus.build_corpus("long_paths", 1)
    with installed(tracer):
        convert_text(built.documents[0].text)
    assert (mappers.parse_path_data, mappers.format_number, mappers.MapperContext.at) == originals
    assert tracer.sizes["path_data.parse"] > 0
    assert tracer.calls["numeric.format"] > 0 and tracer.calls["map.ctx_at"] > 0
    assert {span.name for span in tracer.spans} >= {"path_data.parse", "path_data.normalize", "path_data.emit"}


def test_calibration_kernel_imports_nothing_from_svg2vml():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import calibrate; calibrate.calibrate(); "
        "print(sorted(name for name in sys.modules if name.startswith('svg2vml')))"
    )
    result = subprocess.run([sys.executable, "-I", "-c", code, str(BENCH_DIR)], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

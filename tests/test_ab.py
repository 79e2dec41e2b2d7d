"""The A/B tool (tools/ab.py): a second copy of the converter loads apart from the first."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

import svg2vml

from conftest import wrap_svg

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

DOCUMENT = wrap_svg('<rect x="1" y="2" width="3px" height="4em"/>')


def test_a_second_copy_has_its_own_modules_and_converts_alike():
    copy = ab.load_package("svg2vml_copy", ROOT / "src")
    try:
        assert sys.modules["svg2vml_copy.numeric"] is not sys.modules["svg2vml.numeric"]
        assert copy.convert_text is not svg2vml.convert_text
        output, diagnostics = copy.convert_text(DOCUMENT)
        expected, expected_diagnostics = svg2vml.convert_text(DOCUMENT)
        assert output == expected
        assert [str(d) for d in diagnostics] == [str(d) for d in expected_diagnostics] != []
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "svg2vml_copy"]:
            del sys.modules[name]


def test_time_ratios_gives_one_ratio_per_round():
    calls = []

    def convert(text):
        calls.append(text)

    ratios = ab.time_ratios(convert, lambda text: convert(text), ["a", "b", "c"], 4)
    assert len(ratios) == 4 and all(ratio > 0 for ratio in ratios)
    assert calls == ["a", "a", "b", "b", "c", "c"] * 4


@pytest.fixture
def against_this_checkout(monkeypatch):
    """tools/ab.py with REV exported as a copy of this checkout's src, and its packages dropped afterwards."""
    monkeypatch.setattr(ab, "export", lambda revision, directory: shutil.copytree(ROOT / "src", directory / "src"))
    yield
    for name in [name for name in sys.modules if name.split(".")[0] in ("svg2vml_mine", "svg2vml_against")]:
        del sys.modules[name]


def test_each_workload_given_gets_its_own_line(against_this_checkout, capsys):
    status = ab.main(["--against", "REV", "--workload", "passthrough", "--workload", "long_paths",
                      "--seed", "1", "--rounds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert [line.split(" ")[0] for line in lines] == ["passthrough", "long_paths"]
    assert all("documents identical; time ratio over 2 rounds: median " in line for line in lines)
    assert all(re.search(r"; working tree faster in [012] of 2$", line) for line in lines)


def test_the_workload_line_counts_the_rounds_this_checkout_won(against_this_checkout, monkeypatch, capsys):
    monkeypatch.setattr(ab, "time_ratios", lambda mine, theirs, texts, rounds: [0.9, 1.1, 0.95, 1.0, 0.8][:rounds])
    assert ab.main(["--against", "REV", "--workload", "passthrough", "--seed", "1", "--rounds", "5"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith("time ratio over 5 rounds: median 0.950, quartiles 0.900-1.000; working tree faster in 3 of 5")


def test_a_workload_whose_documents_differ_fails_the_run(against_this_checkout, monkeypatch, capsys):
    real = ab.converter

    def converter(package, corpus):
        return (lambda text: ("", [])) if package.__name__ == "svg2vml_against" else real(package, corpus)

    monkeypatch.setattr(ab, "converter", converter)
    status = ab.main(["--against", "REV", "--workload", "passthrough", "--workload", "flat_shapes", "--seed", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert [line.split(" ")[0] for line in lines] == ["passthrough", "flat_shapes"]
    assert all("documents differ in output or diagnostics, e.g. " in line for line in lines)


def test_cold_start_times_pairs_of_fresh_interpreters(against_this_checkout, capsys):
    status = ab.main(["--against", "REV", "--cold-start", "--rounds", "3"])
    (line,) = capsys.readouterr().out.splitlines()
    assert status == 0
    assert line.startswith("cold start, working tree / REV: time ratio over 3 pairs of fresh interpreters: median ")
    assert line.endswith(" of 3") and " ms; working tree faster in " in line
    assert not any(name.split(".")[0] in ("svg2vml_mine", "svg2vml_against") for name in sys.modules)

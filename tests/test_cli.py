import os
import subprocess
import sys
from pathlib import Path

import pytest

import svg2vml
from conftest import wrap_svg
from svg2vml.cli import convert_text, run

DEMO = wrap_svg('<rect x="1" y="1" width="1198" height="398" fill="red" stroke="blue" stroke-width="2"/>')


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.svg"
    path.write_text(DEMO, encoding="utf-8")
    return path


class TestConvertCommand:
    def test_vml_conversion(self, demo_file, tmp_path, capsys):
        out = tmp_path / "demo.html"
        code = run(["convert", str(demo_file), "-o", str(out), "--mode", "vml"])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "<v:group" in text and "<v:roundrect" in text

    def test_default_output_name_follows_mode(self, demo_file):
        assert run(["convert", str(demo_file)]) == 0
        assert demo_file.with_suffix(".html").exists()
        assert run(["convert", str(demo_file), "--mode", "xhtml"]) == 0
        assert demo_file.with_suffix(".xhtml").exists()

    @pytest.mark.parametrize("name,mode", [("page.xhtml", "xhtml"), ("d.html", "vml")])
    def test_default_output_never_overwrites_the_input(self, tmp_path, capsys, name, mode):
        page = tmp_path / name
        page.write_text(DEMO, encoding="utf-8")
        assert run(["convert", str(page), "--mode", mode]) == 2
        assert page.read_text(encoding="utf-8") == DEMO
        assert "-o" in capsys.readouterr().err
        # an explicit -o still wins
        assert run(["convert", str(page), "--mode", mode, "-o", str(page)]) == 0
        assert page.read_text(encoding="utf-8") != DEMO

    def test_stdout_marker(self, demo_file, capsys):
        assert run(["convert", str(demo_file), "-o", "-"]) == 0
        captured = capsys.readouterr()
        assert "<v:roundrect" in captured.out

    def test_missing_input_is_usage_error(self, capsys):
        assert run(["convert"]) == 2

    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unreadable_input(self, tmp_path, capsys):
        assert run(["convert", str(tmp_path / "absent.svg")]) == 1
        assert "IO_ERROR" in capsys.readouterr().err

    def test_bad_precision_is_usage_error(self, demo_file, capsys):
        for precision in ("99", "-1"):
            assert run(["convert", str(demo_file), "--precision", precision]) == 2
            assert capsys.readouterr().err == "usage error: precision must be in [0, 12]\n"


    @pytest.mark.parametrize("module", ["svg2vml", "svg2vml.cli"])
    def test_module_entry_point_converts_stdin(self, module):
        src = str(Path(svg2vml.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", module, "convert", "-", "-o", "-"],
            input=DEMO, capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == convert_text(DEMO)[0]


class TestStrictAndDiagnostics:
    @pytest.fixture
    def arc_file(self, tmp_path):
        path = tmp_path / "arc.svg"
        path.write_text(wrap_svg('<path d="M 0 0 Q 1 1 2 2"/>'), encoding="utf-8")
        return path

    def test_strict_unsupported_command_exits_1(self, arc_file, tmp_path, capsys):
        out = tmp_path / "out.html"
        code = run(["convert", str(arc_file), "-o", str(out), "--strict"])
        assert code == 1
        assert "UNSUPPORTED_COMMAND" in capsys.readouterr().err
        assert not out.exists()

    def test_lenient_reports_error_but_writes_output(self, arc_file, tmp_path, capsys):
        out = tmp_path / "out.html"
        code = run(["convert", str(arc_file), "-o", str(out)])
        assert code == 1
        assert "UNSUPPORTED_COMMAND" in capsys.readouterr().err
        assert out.exists()

    def test_strict_escalates_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.svg"
        path.write_text(wrap_svg("<desc>meta</desc>"), encoding="utf-8")
        assert run(["convert", str(path)]) == 0
        assert run(["convert", str(path), "--strict"]) == 1

    def test_quiet_suppresses_warnings_but_not_errors(self, tmp_path, capsys):
        path = tmp_path / "mixed.svg"
        path.write_text(
            wrap_svg('<desc>meta</desc><path d="M 0 0 Q 1 1 2 2"/>'), encoding="utf-8"
        )
        run(["convert", str(path)])
        noisy = capsys.readouterr().err
        assert "warning" in noisy and "UNSUPPORTED_COMMAND" in noisy
        run(["convert", str(path), "--quiet"])
        quiet = capsys.readouterr().err
        assert "warning" not in quiet
        assert "UNSUPPORTED_COMMAND" in quiet

    def test_diagnostic_line_format(self, tmp_path, capsys):
        path = tmp_path / "warn.svg"
        path.write_text(wrap_svg("<desc>meta</desc>"), encoding="utf-8")
        run(["convert", str(path)])
        line = capsys.readouterr().err.splitlines()[0]
        assert line.startswith("warning UNKNOWN_ELEMENT: ")
        assert "@svg/desc[0]" in line


class TestRepeatability:
    def test_same_flags_same_bytes(self, demo_file, tmp_path):
        out_a = tmp_path / "a.html"
        out_b = tmp_path / "b.html"
        assert run(["convert", str(demo_file), "-o", str(out_a), "--pretty"]) == 0
        assert run(["convert", str(demo_file), "-o", str(out_b), "--pretty"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

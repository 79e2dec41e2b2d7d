import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svg2vml
from conftest import wrap_svg
from svg2vml.cli import convert_text, run

DEMO = wrap_svg('<rect x="1" y="1" width="1198" height="398" fill="red" stroke="blue" stroke-width="2"/>')
# A well-formed document in its declared Latin-1 encoding, with one byte that is not UTF-8.
LATIN1 = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n' + wrap_svg('<text x="1" y="5" font-size="10">caf\xe9</text>')).encode("latin-1")


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

    @pytest.mark.parametrize(
        "data,codec_message",
        [
            (LATIN1, "byte 0xe9 in position %d: invalid continuation byte" % LATIN1.index(b"\xe9")),
            (DEMO.encode("utf-16"), "byte 0xff in position 0: invalid start byte"),
        ],
        ids=["latin-1", "utf-16"],
    )
    def test_input_that_is_not_utf8_is_an_io_error(self, tmp_path, capsys, data, codec_message):
        page = tmp_path / "page.svg"
        page.write_bytes(data)
        assert run(["convert", str(page)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error IO_ERROR: {page} is not UTF-8 text ('utf-8' codec can't decode {codec_message})\n"
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["page.svg"]

    def test_stdin_that_is_not_utf8_is_an_io_error(self, monkeypatch, capsys):
        # The text layer reads Latin-1 without fault: only a reader of the bytes reports.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(LATIN1), encoding="latin-1"))
        assert run(["convert", "-", "-o", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error IO_ERROR: stdin is not UTF-8 text ('utf-8' codec can't decode byte 0xe9")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_a_swapped_stdout_gets_the_output_as_text(self, demo_file, capsys):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert run(["convert", str(demo_file), "-o", "-"]) == 0
        assert stdout.getvalue() == convert_text(DEMO)[0]
        assert capsys.readouterr() == ("", "")

    def test_a_swapped_stdin_is_read_as_text(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(DEMO))
        out = tmp_path / "out.html"
        assert run(["convert", "-", "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == convert_text(DEMO)[0]
        assert capsys.readouterr() == ("", "")

    def test_unwritable_output_is_an_io_error(self, demo_file, tmp_path, capsys):
        assert run(["convert", str(demo_file), "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error IO_ERROR: ") and err.count("\n") == 1
        assert str(tmp_path) in err

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
        assert result.stderr == ""


# The same document on either side of "-": a UTF-8 file, or stdin and stdout in a
# stream encoding that cannot hold it or would misread it.
CAFE = wrap_svg('<text x="1" y="5" font-size="10">caf\xe9 \u2192</text>')


def run_cli(args, encoding, stdin=b""):
    src = str(Path(svg2vml.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONIOENCODING": encoding,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "svg2vml", *args], input=stdin, capture_output=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
class TestStreamsAreUtf8:
    def test_stdout_is_utf8(self, tmp_path, encoding):
        page = tmp_path / "page.svg"
        page.write_text(CAFE, encoding="utf-8")
        result = run_cli(["convert", str(page), "-o", "-"], encoding)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == convert_text(CAFE)[0].encode("utf-8")
        assert "caf\xe9 \u2192" in result.stdout.decode("utf-8")

    def test_stdin_is_utf8(self, tmp_path, encoding):
        out = tmp_path / "out.html"
        result = run_cli(["convert", "-", "-o", str(out)], encoding, stdin=CAFE.encode("utf-8"))
        assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
        assert out.read_text(encoding="utf-8") == convert_text(CAFE)[0]

    def test_stdin_that_is_not_utf8_is_one_io_error_line(self, encoding):
        result = run_cli(["convert", "-", "-o", "-"], encoding, stdin=LATIN1)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode("ascii").startswith(
            "error IO_ERROR: stdin is not UTF-8 text ('utf-8' codec can't decode byte 0xe9"
        )
        assert result.stderr.count(b"\n") == 1


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

    # A parse-time loss, then a mapping-time one.
    LOSSES = wrap_svg('<blink/><rect width="1em" height="1"/>')

    @pytest.mark.parametrize(
        "mode,codes", [("vml", ["UNKNOWN_ELEMENT", "UNSUPPORTED_UNIT"]), ("xhtml", ["UNKNOWN_ELEMENT"])]
    )
    def test_strict_lists_every_loss_as_an_error(self, mode, codes):
        output, diagnostics = convert_text(self.LOSSES, svg2vml.ConvertOptions(mode=mode, strict=True))
        assert output is None
        assert [(d.severity, d.code) for d in diagnostics] == [("error", code) for code in codes]

    def test_strict_quiet_prints_every_error_line(self, tmp_path, capsys):
        path = tmp_path / "losses.svg"
        path.write_text(self.LOSSES, encoding="utf-8")
        out = tmp_path / "out.html"
        assert run(["convert", str(path), "-o", str(out), "--strict", "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error UNKNOWN_ELEMENT: unsupported element <blink> @svg/blink[0]",
            "error UNSUPPORTED_UNIT: unsupported length unit 'em' in '1em' @svg/rect[1]@width",
        ]
        assert not out.exists()

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

import random

import pytest

from svg2vml.diagnostics import Diagnostics
from svg2vml.path_data import emit_vml_path, parse_path_data, to_absolute

ARITY = {"M": 2, "L": 2, "H": 1, "V": 1, "C": 6, "Z": 0}
KIND_OF_LETTER = {"m": "M", "l": "L", "c": "C", "x": "Z"}


def absolute(d, dx=0.0, dy=0.0):
    diagnostics = Diagnostics()
    segments = parse_path_data(d, diagnostics, "svg/path[0]@d")
    assert not len(diagnostics), d
    return list(to_absolute(segments, dx, dy))


def as_segments(parts):
    """The absolute segments that to_absolute's (vml_letter, coords) pairs spell."""
    return [(KIND_OF_LETTER[letter], False, coords) for letter, coords in parts]


def simulate_cursor(segments):
    """Independent cursor walk over segments in any form.

    Returns the sequence of absolute cursor positions after each coordinate
    group (a moveto's later groups are linetos); used as the oracle for
    to_absolute.
    """
    positions = []
    cx = cy = sx = sy = 0.0
    for kind, rel, values in segments:
        arity = ARITY[kind]
        groups = [values[i : i + arity] for i in range(0, len(values), arity)] if arity else [()]
        for index, co in enumerate(groups):
            k = "L" if kind == "M" and index else kind
            if k == "Z":
                cx, cy = sx, sy
            elif k == "H":
                cx = cx + co[0] if rel else co[0]
            elif k == "V":
                cy = cy + co[0] if rel else co[0]
            else:
                x, y = co[-2], co[-1]
                if rel:
                    x, y = cx + x, cy + y
                cx, cy = x, y
                if k == "M":
                    sx, sy = cx, cy
            positions.append((cx, cy))
    return positions


class TestParsePathData:
    def test_implicit_lineto_after_moveto(self, diags):
        d = "M 100 100 200 200 L 300 100 200 300 Z"
        assert parse_path_data(d, diags, "svg/path[0]@d") == [
            ("M", False, [100, 100, 200, 200]),
            ("L", False, [300, 100, 200, 300]),
            ("Z", False, ()),
        ]
        assert absolute(d) == [
            ("m", (100, 100)),
            ("l", (200, 200)),
            ("l", (300, 100)),
            ("l", (200, 300)),
            ("x", ()),
        ]

    def test_single_moveto(self, diags):
        assert parse_path_data("M 0 0", diags, "svg/path[0]@d") == [("M", False, [0, 0])]

    def test_quadratic_is_unsupported(self, diags):
        parse_path_data("M 0 0 Q 1 1 2 2", diags, "svg/path[0]@d")
        assert "UNSUPPORTED_COMMAND" in diags.codes()

    @pytest.mark.parametrize("letter", list("SsQqTt"))
    def test_unsupported_commands(self, letter, diags):
        parse_path_data(f"M 0 0 {letter} 1 1 2 2 3 3", diags, "svg/path[0]@d")
        assert [(d.code, d.message, d.location) for d in diags] == [
            ("UNSUPPORTED_COMMAND", f"path command {letter!r} is not implemented", "svg/path[0]@d")
        ]

    @pytest.mark.parametrize("letter", ["A", "a"])
    def test_arc_is_future_work(self, letter, diags):
        parse_path_data(f"M 0 0 {letter} 1 1 0 0 0 5 5", diags, "svg/path[0]@d")
        assert "FUTURE_WORK_ARC" in diags.codes()

    @pytest.mark.parametrize(
        "d,kinds",
        [
            ("M 1 2", ["M"]),
            ("m 1 2", ["M"]),
            ("M 1 2 L 3 4 l 5 6", ["M", "L", "L"]),
            ("M 1 2 H 3 h 4", ["M", "H", "H"]),
            ("M 1 2 V 3 v 4", ["M", "V", "V"]),
            ("M 1 2 C 1 2 3 4 5 6 c 1 2 3 4 5 6", ["M", "C", "C"]),
            ("M 1 2 Z", ["M", "Z"]),
            ("M 1 2 z", ["M", "Z"]),
        ],
    )
    def test_supported_commands(self, d, kinds, diags):
        assert [kind for kind, _, _ in parse_path_data(d, diags, "svg/path[0]@d")] == kinds
        assert not diags.has_errors

    def test_comma_and_whitespace_separators(self, diags):
        assert parse_path_data("M1,2L3,4", diags, "svg/path[0]@d") == [("M", False, [1, 2]), ("L", False, [3, 4])]

    @pytest.mark.parametrize("bad", ["M 1", "M 1 2 L 3", "M 1 2 B 3 4", "M 1 2 C 1 2 3", "1 2"])
    def test_malformed(self, bad, diags):
        parse_path_data(bad, diags, "svg/path[0]@d")
        assert diags.has_errors

    def test_implicit_relative_lineto(self, diags):
        assert parse_path_data("m 1 2 3 4", diags, "svg/path[0]@d") == [("M", True, [1, 2, 3, 4])]
        assert absolute("m 1 2 3 4") == [("m", (1, 2)), ("l", (4, 6))]


class TestToAbsolute:
    def test_relative_moveto_chain(self):
        assert absolute("m 100,100 m 200,200") == [("m", (100, 100)), ("m", (300, 300))]

    def test_already_absolute_unchanged(self):
        assert absolute("M 100,100 M 200,200") == [("m", (100, 100)), ("m", (200, 200))]

    def test_h_and_v_become_linetos(self, diags):
        segments = parse_path_data("M 10 20 h 5 V 7", diags, "svg/path[0]@d")
        result = list(to_absolute(segments))
        assert result == [("m", (10, 20)), ("l", (15, 20)), ("l", (15, 7))]
        # cursor oracle agrees
        assert simulate_cursor(segments) == simulate_cursor(as_segments(result))

    def test_uppercase_h_is_absolute(self):
        # "H a" targets x=a, it does not add to the cursor
        assert absolute("M 10 20 H 5") == [("m", (10, 20)), ("l", (5, 20))]

    def test_close_resets_cursor_to_subpath_start(self):
        assert absolute("M 10 10 l 5 0 z l 1 1")[-1] == ("l", (11, 11))

    def test_relative_cubic(self):
        assert absolute("M 10 20 c 1 2 3 4 5 6") == [("m", (10, 20)), ("c", (11, 22, 13, 24, 15, 26))]

    def test_idempotent(self):
        once = absolute("m 1 2 h 3 v 4 c 1 1 2 2 3 3 z m 5 5 L 9 9")
        assert list(to_absolute(as_segments(once))) == once

    def test_random_paths_preserve_trajectory(self):
        rng = random.Random(2009)
        letters = ["M", "m", "L", "l", "H", "h", "V", "v", "C", "c", "Z"]
        for _ in range(200):
            d_parts = ["M", "0", "0"]
            for _ in range(rng.randint(1, 12)):
                letter = rng.choice(letters)
                arity = ARITY[letter.upper()]
                d_parts.append(letter)
                d_parts.extend(str(rng.randint(-50, 50)) for _ in range(arity))
            diags = Diagnostics()
            segments = parse_path_data(" ".join(d_parts), diags, "svg/path[0]@d")
            assert not diags.has_errors
            result = list(to_absolute(segments))
            assert all(letter in KIND_OF_LETTER for letter, _ in result)
            original = simulate_cursor(segments)
            normalized = simulate_cursor(as_segments(result))
            assert len(original) == len(normalized)
            for (x0, y0), (x1, y1) in zip(original, normalized):
                assert abs(x0 - x1) <= 1e-9
                assert abs(y0 - y1) <= 1e-9


class TestEmitVmlPath:
    def test_polyline_form(self):
        parts = [("m", (0, 0)), ("l", (100, 100)), ("l", (200, 200))]
        assert emit_vml_path(parts) == "m 0,0 l 100,100 l 200,200 e"

    def test_polygon_form(self):
        parts = [("m", (0, 0)), ("l", (100, 100)), ("l", (200, 200)), ("x", ())]
        assert emit_vml_path(parts) == "m 0,0 l 100,100 l 200,200 x e"

    def test_single_moveto(self):
        assert emit_vml_path([("m", (0, 0))]) == "m 0,0 e"

    def test_line_form(self):
        assert emit_vml_path([("m", (0, 0)), ("l", (100, 200))]) == "m 0,0 l 100,200 e"

    def test_cubic(self):
        parts = [("m", (100, 200)), ("c", (200, 100, 300, 0, 400, 100))]
        assert emit_vml_path(parts) == "m 100,200 c 200,100,300,0,400,100 e"

    def test_terminator_and_case_invariants(self, diags):
        rng = random.Random(7)
        for _ in range(50):
            parts = [("m", (rng.randint(0, 9), rng.randint(0, 9)))]
            for _ in range(rng.randint(0, 5)):
                parts.append(("l", (rng.uniform(-5, 5), rng.uniform(-5, 5))))
            if rng.random() < 0.5:
                parts.append(("x", ()))
            text = emit_vml_path(parts)
            assert text.endswith("e")
            assert text == text.lower()

    def test_precision_and_zero_normalization(self):
        assert emit_vml_path([("m", (-0.0000001, 2.5))], precision=6) == "m 0,2.5 e"
        assert emit_vml_path([("m", (1.23456789, 0))], precision=3) == "m 1.235,0 e"

    def test_reference_translations_byte_for_byte(self, diags):
        # polyline, polygon and line translations, reproduced from their
        # source coordinate lists at precision 6
        polyline = [("m", (0, 0)), ("l", (100, 100)), ("l", (200, 200))]
        assert emit_vml_path(polyline, 6) == "m 0,0 l 100,100 l 200,200 e"
        polygon = polyline + [("x", ())]
        assert emit_vml_path(polygon, 6) == "m 0,0 l 100,100 l 200,200 x e"
        line = [("m", (0, 0)), ("l", (100, 200))]
        assert emit_vml_path(line, 6) == "m 0,0 l 100,200 e"


class TestShift:
    def test_shifts_all_pairs(self):
        segments = [("M", False, (1, 2)), ("C", False, (0, 0, 1, 1, 2, 2)), ("Z", False, ())]
        shifted = list(to_absolute(segments, 10, -5))
        assert shifted == [("m", (11, -3)), ("c", (10, -5, 11, -4, 12, -3)), ("x", ())]

    def test_shift_stays_out_of_the_cursor(self):
        # relative groups add to the unshifted cursor, so the shift applies once
        assert absolute("m 1 1 l 1 1 h 1 v 1", 10, 20) == [
            ("m", (11, 21)),
            ("l", (12, 22)),
            ("l", (13, 22)),
            ("l", (13, 23)),
        ]

    def test_close_returns_to_the_unshifted_subpath_start(self):
        assert absolute("M 5 5 l 1 0 z l 2 2", -5, 5)[-2:] == [("x", ()), ("l", (2, 12))]

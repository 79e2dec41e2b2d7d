"""Properties of the single-pass path kernel and the mappers that use it."""

import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svg2vml import ConvertOptions, convert_text
from svg2vml.diagnostics import Diagnostics
from svg2vml.mappers import _points_path
from svg2vml.numeric import NUMBER_PATTERN, NUMBER_RE, format_number
from svg2vml.path_data import emit_vml_path, parse_path_data, to_absolute
from svg2vml.svg_dom import parse_points

from conftest import wrap_svg

ARITY = {"M": 2, "L": 2, "H": 1, "V": 1, "C": 6, "Z": 0}
SEPARATORS = [" ", ",", ", ", "\t", "\n", " ,\n "]


@st.composite
def number_texts(draw):
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    whole = str(draw(st.integers(0, 10**6)))
    fraction = str(draw(st.integers(0, 10**4)))
    form = draw(st.sampled_from(["I", "I.", "I.F", ".F"]))
    return sign + form.replace("I", whole).replace("F", fraction)


@st.composite
def path_programs(draw):
    """A list of (letter, groups) with a leading moveto; each group is a
    list of number texts of the command's arity."""
    commands = []
    for index in range(draw(st.integers(1, 8))):
        letter = "M" if index == 0 else draw(st.sampled_from("MLHVCZ"))
        if draw(st.booleans()):
            letter = letter.lower()
        arity = ARITY[letter.upper()]
        count = 0 if not arity else draw(st.integers(1, 3))
        groups = [draw(st.lists(number_texts(), min_size=arity, max_size=arity)) for _ in range(count)]
        commands.append((letter, groups))
    return commands


def render(commands, draw) -> str:
    """Path text with random separators, using the compact forms the
    grammar allows: no separator around letters, before a sign, or before
    a ".5" that follows a number already holding a point."""
    out = []
    previous = None  # text of the previous number, None after a letter
    for letter, groups in commands:
        out.append(draw(st.sampled_from(["", " "])) + letter)
        previous = None
        for number in (n for group in groups for n in group):
            compact = previous is None or number[0] in "+-" or (number[0] == "." and "." in previous)
            separators = SEPARATORS + ([""] if compact else [])
            out.append(draw(st.sampled_from(separators)) + number)
            previous = number
    return "".join(out)


def cursor_walk(commands, precision, dx=0.0, dy=0.0) -> str:
    """Independent oracle: the absolute VML text of a generated program."""
    out = []
    cx = cy = sx = sy = 0.0
    for letter, groups in commands:
        kind, relative = letter.upper(), letter.islower()
        if kind == "Z":
            out.append("x")
            cx, cy = sx, sy
            continue
        for index, group in enumerate(groups):
            values = [float(text) for text in group]
            if kind == "H":
                cx = cx + values[0] if relative else values[0]
                points = [(cx, cy)]
            elif kind == "V":
                cy = cy + values[0] if relative else values[0]
                points = [(cx, cy)]
            else:
                points = list(zip(values[::2], values[1::2]))
                if relative:
                    points = [(x + cx, y + cy) for x, y in points]
                cx, cy = points[-1]
            vml = "m" if kind == "M" and index == 0 else "c" if kind == "C" else "l"
            if kind == "M" and index == 0:
                sx, sy = cx, cy
            coords = [format_number(v, precision) for x, y in points for v in (x + dx, y + dy)]
            out.append(f"{vml} {','.join(coords)}")
    out.append("e")
    return " ".join(out)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), precision=st.sampled_from([0, 2, 6, 12]), shift=st.sampled_from([(0.0, 0.0), (12.5, -3.0)]))
def test_valid_paths_match_an_independent_cursor_walk(data, precision, shift):
    commands = data.draw(path_programs())
    d = render(commands, data.draw)
    diagnostics = Diagnostics()
    segments = parse_path_data(d, diagnostics, "svg/path[0]@d")
    assert not len(diagnostics), d
    expected = cursor_walk(commands, precision, *shift)
    assert emit_vml_path(to_absolute(segments, *shift), precision) == expected, d


# The gap check the scanner used before it counted lengths: removing every
# token must leave only separators.  Kept as the reference for the count.
OLD_TOKEN_RE = re.compile(rf"([A-Za-z])|({NUMBER_PATTERN})")
OLD_SEPARATORS = " \t\r\n,"


def old_scan_path(d, diagnostics):
    """The scanner as it was with the regex gap check, rest unchanged."""
    if OLD_TOKEN_RE.sub("", d).strip(OLD_SEPARATORS):
        diagnostics.error("BAD_PATH", f"unparseable path data {d!r}")
        return []
    pieces = re.split(r"([A-Za-z])", d)
    if NUMBER_RE.search(pieces[0]):
        diagnostics.error("BAD_PATH", "coordinates before any command")
        return []
    segments = []
    for index in range(1, len(pieces), 2):
        letter = pieces[index]
        kind = letter.upper()
        arity = ARITY.get(kind)
        if arity is None:
            if kind in "SQT":
                diagnostics.error("UNSUPPORTED_COMMAND", f"path command {letter!r} is not implemented")
            elif kind == "A":
                diagnostics.error("FUTURE_WORK_ARC", f"arc command {letter!r} is not implemented")
            else:
                diagnostics.error("BAD_PATH", f"unknown path command {letter!r}")
            return segments
        numbers = NUMBER_RE.findall(pieces[index + 1])
        if not arity:
            segments.append(("Z", False, ()))
            if numbers:
                diagnostics.error("BAD_PATH", "coordinates before any command")
                return segments
            continue
        whole = len(numbers) - len(numbers) % arity
        if whole:
            segments.append((kind, letter.islower(), list(map(float, numbers[:whole]))))
        if not whole or whole != len(numbers):
            shown = "L" if kind == "M" and whole else kind
            diagnostics.error("BAD_PATH", f"command {shown} expects {arity} coordinates")
            return segments
    return segments


# Every command letter, the exponent letter, number characters, the five
# separators, Unicode spaces, Unicode digits (which \d matches) and NUL, plus
# what the split reader must keep out: the underscore float() reads as a digit
# separator, VT, FF and the information separators str.split() splits on, and
# non-ASCII letters that str.isalpha() accepts: LONG S, which upper-cases to
# S, the KELVIN SIGN, which lower-cases to k, and SCRIPT SMALL L.  float()
# rejects those letters anyway, so only a compact path catches a letter gate
# that tests isalpha() without isascii().
PATH_ALPHABET = (
    "MmLlHhVvCcZzSsQqTtAaEe0123456789.+- \t\r\n,\u2003\u00a0\u0663\uff11\x00_\x0b\x0c\x1c\x1f"
    "\u017f\u212a\u2113"
)


@st.composite
def path_texts(draw):
    """Random strings over the alphabet, or a valid path with a few of them spliced in."""
    if draw(st.booleans()):
        return draw(st.text(PATH_ALPHABET, max_size=40))
    d = render(draw(path_programs()), draw)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(d)))
        d = d[:at] + draw(st.text(PATH_ALPHABET, min_size=1, max_size=3)) + d[at:]
    return d


@settings(max_examples=400, deadline=None)
@given(d=path_texts())
@example(d="M 1_0 2")
@example(d="M 1\x0b2")
@example(d="M 1\x1c2")
@example(d="M 1.2.3")
@example(d="M 1.2.3 \u017f 4")
@example(d="M 1.2.3 \u212a 4")
@example(d="M 1.2.3 \u2113 4")
def test_length_count_accepts_what_the_gap_check_accepted(d):
    diagnostics, expected = Diagnostics(), Diagnostics()
    assert parse_path_data(d, diagnostics, "svg/path[0]@d") == old_scan_path(d, expected)
    assert [(x.code, x.message) for x in diagnostics] == [(x.code, x.message) for x in expected]


@settings(max_examples=200, deadline=None)
@given(
    coords=st.lists(st.tuples(st.floats(), st.floats()), min_size=2, max_size=12).map(
        lambda pairs: [value for pair in pairs for value in pair]
    ),
    closed=st.booleans(),
    precision=st.integers(0, 12),
)
def test_points_path_is_the_segment_form(coords, closed, precision):
    parts = [("m", coords[0:2])] + [("l", coords[i:i + 2]) for i in range(2, len(coords), 2)]
    if closed:
        parts.append(("x", ()))
    assert _points_path(coords, closed, precision) == emit_vml_path(parts, precision)


FAULTS = {
    "unsupported": (" Q 1 2 3 4", "UNSUPPORTED_COMMAND"),
    "smooth": ("s1,2,3,4", "UNSUPPORTED_COMMAND"),
    "arc": (" a 1 1 0 0 0 5 5", "FUTURE_WORK_ARC"),
    "unknown": (" B 3 4", "BAD_PATH"),
    "exponent": (" L 1e5 2", "BAD_PATH"),
    "short group": (" C 1 2 3", "BAD_PATH"),
    "stray": (" L #3 4", "BAD_PATH"),
    "double point": (" L 1..5 2", "BAD_PATH"),
    "close with numbers": (" Z 1 2", "BAD_PATH"),
    "moveto short lineto": (" M 1 2 3", "BAD_PATH"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS) + ["leading numbers"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_invalid_paths_give_exactly_one_diagnostic(fault, data):
    valid = render(data.draw(path_programs()), data.draw)
    if fault == "leading numbers":
        d, expected = f"1 2 {valid}", "BAD_PATH"
    else:
        text, expected = FAULTS[fault]
        d = valid + text
    diagnostics = Diagnostics()
    parse_path_data(d, diagnostics, "svg/path[0]@d")
    assert diagnostics.codes() == [expected], d

    output, diagnostics = convert_text(wrap_svg(f'<path d="{d}"/>'))
    assert diagnostics.codes() == [expected]
    assert "v:shape" not in output


ADVERSARIAL = [
    "M" + "1" * 200_000 + "#",
    "M 0 0 L" + "-1" * 100_000 + "!",
    "M" + ".5" * 100_000 + "x%",
    "M 1 1 " + "1" * 199_990 + ".",
]


@pytest.mark.parametrize("d", ADVERSARIAL, ids=["digits", "signs", "points", "trailing-dot"])
def test_adversarial_path_is_rejected_in_linear_time(d):
    start = time.perf_counter()
    output, diagnostics = convert_text(wrap_svg(f'<path d="{d}"/>'))
    assert time.perf_counter() - start < 1.0
    assert diagnostics.codes() == ["BAD_PATH"]


def test_path_with_a_character_outside_the_grammar_is_rejected_before_any_regex():
    # Valid up to its last character, so only the check for characters
    # outside the grammar can reject it without reading every number.
    d = "M 0 0 L" + " 1.5 2" * 33_332 + "\u2003"
    assert len(d) == 200_000
    diagnostics = Diagnostics()
    start = time.perf_counter()
    assert parse_path_data(d, diagnostics, "") == []
    assert time.perf_counter() - start < 0.25
    assert [str(item) for item in diagnostics] == [f"error BAD_PATH: unparseable path data {d!r}"]


def test_long_valid_path_converts_in_linear_time():
    groups = 60_000
    d = "M 0 0" + " l 1.5,-2.25 c 1,2 3,4 5,6 h 7 V 8" * (groups // 4)
    start = time.perf_counter()
    output, diagnostics = convert_text(wrap_svg(f'<path d="{d}"/>'))
    assert time.perf_counter() - start < 2.0
    assert not len(diagnostics)
    assert len(output) < 3 * len(d)
    assert output.count(" c ") == groups // 4


def test_adversarial_points_are_rejected_in_linear_time():
    start = time.perf_counter()
    _, diagnostics = convert_text(wrap_svg(f'<polyline points="0,0 {"1" * 200_000}x"/>'))
    assert time.perf_counter() - start < 1.0
    assert diagnostics.codes() == ["BAD_POINTS"]


# --- empty d and non-finite coordinates -----------------------------------------


@pytest.mark.parametrize("d", ["", "   ", " ,\n"], ids=["empty", "spaces", "separators"])
def test_empty_d_is_reported(d):
    output, diagnostics = convert_text(wrap_svg(f'<path d="{d}"/>'))
    assert [(x.code, x.message) for x in diagnostics] == [
        ("DEGENERATE_SHAPE", "path with empty d; skipped")
    ]
    assert "v:shape" not in output


def test_empty_d_aborts_strict_mode():
    output, diagnostics = convert_text(wrap_svg('<path d=""/>'), ConvertOptions(strict=True))
    assert output is None
    assert diagnostics.codes() == ["DEGENERATE_SHAPE"]


HUGE = "1" * 400
NEAR_MAX = "9" * 308


@pytest.mark.parametrize(
    "body,codes",
    [
        (f'<path d="M 0 0 l {HUGE},1"/>', ["BAD_PATH"]),
        (f'<path d="M {NEAR_MAX} 0 l {NEAR_MAX} 0"/>', ["BAD_PATH"]),
        (f'<path d="M {HUGE} 0 l -{HUGE} 0"/>', ["BAD_PATH"]),
        (f'<path transform="translate(5,5)" d="M 0 0 L {HUGE} 1"/>', ["BAD_PATH"]),
        (f'<polyline points="0,0 {HUGE},1"/>', ["BAD_POINTS"]),
        (f'<polygon transform="scale(10)" points="0,0 {NEAR_MAX},1"/>', ["BAD_TRANSFORM"]),
        (f'<rect width="{HUGE}" height="5"/>', ["UNSUPPORTED_UNIT"]),
    ],
    ids=["digits", "accumulated", "nan", "shifted", "points", "scaled-points", "width"],
)
def test_non_finite_values_never_reach_the_output(body, codes):
    output, diagnostics = convert_text(wrap_svg(body))
    assert diagnostics.codes() == codes
    assert "inf" not in output and "nan" not in output


def test_non_finite_points_name_the_token():
    diagnostics = Diagnostics()
    assert parse_points(f"0,0 1,1 {HUGE},2", diagnostics, "svg/polyline[0]") == []
    assert [x.message for x in diagnostics] == [f"non-numeric coordinate {HUGE!r}"]

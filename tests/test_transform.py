import math
import random
import re
from decimal import Decimal

import pytest
from conftest import ctm_of, read_ops, rejects, wrap_svg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svg2vml import ConvertOptions, convert_text
from svg2vml.diagnostics import Diagnostics
from svg2vml.numeric import NUMBER_LIST_PATTERN, NUMBER_PATTERN, SEPARATORS, WSP, format_number
from svg2vml.svg_dom import Point
from svg2vml.transform import (
    DISTRIBUTE,
    EMPTY_CHAIN,
    IDENTITY,
    MATRIX_FILTER,
    RECALC_POINTS,
    SKEW_PATH,
    SKEW_SHAPE,
    STRATEGIES,
    RootSize,
    ShapeBox,
    TransformMatrix,
    TransformOp,
    _entries,
    parse_transform_list,
    place,
    recalc_points,
)

AT = "svg/g[0]@transform"  # where the reader calls below read their list

# --- independent oracles ------------------------------------------------------


def oracle_matrix(op):
    """3x3 matrix for one op, built directly from its definition."""
    name, args = op.name, op.args
    if name == "matrix":
        a, b, c, d, e, f = args
        return [[a, c, e], [b, d, f], [0, 0, 1]]
    if name == "translate":
        return [[1, 0, args[0]], [0, 1, args[1]], [0, 0, 1]]
    if name == "scale":
        return [[args[0], 0, 0], [0, args[1], 0], [0, 0, 1]]
    if name == "rotate":
        r = math.radians(args[0])
        rot = [[math.cos(r), -math.sin(r), 0], [math.sin(r), math.cos(r), 0], [0, 0, 1]]
        if len(args) == 1:
            return rot
        cx, cy = args[1], args[2]
        pre = [[1, 0, cx], [0, 1, cy], [0, 0, 1]]
        post = [[1, 0, -cx], [0, 1, -cy], [0, 0, 1]]
        return oracle_matmul(oracle_matmul(pre, rot), post)
    if name == "skewX":
        return [[1, math.tan(math.radians(args[0])), 0], [0, 1, 0], [0, 0, 1]]
    if name == "skewY":
        return [[1, 0, 0], [math.tan(math.radians(args[0])), 1, 0], [0, 0, 1]]
    raise AssertionError(name)


def oracle_matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def oracle_compose(ops):
    result = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for op in ops:
        result = oracle_matmul(result, oracle_matrix(op))
    return result


def as_3x3(m: TransformMatrix):
    return [[m.a, m.c, m.e], [m.b, m.d, m.f], [0, 0, 1]]


def assert_matrix_close(got: TransformMatrix, want_3x3, tol=1e-9):
    got_3x3 = as_3x3(got)
    for i in range(3):
        for j in range(3):
            assert abs(got_3x3[i][j] - want_3x3[i][j]) < tol, (got_3x3, want_3x3)


def random_ops(rng, max_len=5):
    ops = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(["translate", "scale", "rotate", "rotate3", "skewX", "skewY", "matrix"])
        if kind == "translate":
            args = (rng.uniform(-100, 100), rng.uniform(-100, 100))
        elif kind == "scale":
            args = (rng.uniform(0.1, 10), rng.uniform(0.1, 10))
        elif kind == "rotate3":
            kind, args = "rotate", (rng.uniform(-80, 80), rng.uniform(-50, 50), rng.uniform(-50, 50))
        elif kind == "matrix":
            args = (*(rng.uniform(-2, 2) for _ in range(4)), rng.uniform(-10, 10), rng.uniform(-10, 10))
        else:
            args = (rng.uniform(-80, 80),)
        ops.append(TransformOp(kind, args))
    return ops


# --- parsing ------------------------------------------------------------------


class TestParseTransformList:
    def test_rotate_about_point(self, diags):
        assert parse_transform_list("rotate(20, 300, 300)", diags, AT) == [TransformOp("rotate", (20.0, 300.0, 300.0))]

    def test_empty(self, diags):
        assert parse_transform_list("", diags, AT) == []

    def test_scale_two_args(self, diags):
        assert parse_transform_list("scale(3,1)", diags, AT) == [TransformOp("scale", (3.0, 1.0))]

    def test_defaults(self, diags):
        assert parse_transform_list("translate(7)", diags, AT) == [TransformOp("translate", (7.0, 0.0))]
        assert parse_transform_list("scale(2)", diags, AT) == [TransformOp("scale", (2.0, 2.0))]
        assert parse_transform_list("rotate(30)", diags, AT) == [TransformOp("rotate", (30.0,))]

    def test_list_with_mixed_separators(self, diags):
        ops = parse_transform_list("translate(1 2), rotate(3)\nscale(4)", diags, AT)
        assert [op.name for op in ops] == ["translate", "rotate", "scale"]

    def test_matrix_six_values(self, diags):
        assert parse_transform_list("matrix(1 2 3 4 5 6)", diags, AT) == [TransformOp("matrix", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))]

    @pytest.mark.parametrize(
        "bad",
        ["spin(10)", "rotate(1, 2)", "scale()", "matrix(1 2 3 4 5)", "rotate(1x)", "rotate(1) junk"],
    )
    def test_bad_lists(self, bad, diags):
        assert parse_transform_list(bad, diags, AT) == []
        assert "BAD_TRANSFORM" in diags.codes()

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("matrix(1 2 3)", "matrix() takes 6 arguments, got 3"),
            ("rotate(1, 2)", "rotate() takes 1 or 3 arguments, got 2"),
            ("scale()", "scale() takes 1 or 2 arguments, got 0"),
            ("spin(10)", "unknown transform function 'spin'"),
            ("scale(2) ; rotate(3)", "unparseable transform text ';'"),
            ("rotate(1) junk", "trailing transform text 'junk'"),
            ("rotate(1x)", "non-numeric argument in rotate(1x)"),
            ("translate(1e400)", "non-numeric argument in translate(1e400)"),
            pytest.param(
                f"translate({'9' * 400})", f"argument out of range in translate({'9' * 400})", id="out-of-range"
            ),
            # A fault drops the whole list, pole skews and all, with only its own message.
            ("skewX(90) scale(1 2 3)", "scale() takes 1 or 2 arguments, got 3"),
        ],
    )
    def test_argument_count_message(self, bad, message, diags):
        assert parse_transform_list(bad, diags, AT) == []
        assert [(d.code, d.message) for d in diags] == [("BAD_TRANSFORM", message)]


_NAMES = st.sampled_from(
    ["matrix", "translate", "scale", "rotate", "skewX", "skewY", "Scale", "skewx", "ROTATE", "spin"]
)
_DIGITS = st.text(st.sampled_from("0123456789\u0663"), min_size=1, max_size=4)  # U+0663 is a digit to re and float
# Signed numbers in the forms 1, 1., 1.5 and .1, and now and then a digit run
# long enough to overflow to inf.
_SIGNED = st.builds("".join, st.tuples(st.sampled_from(["", "-", "+"]), _DIGITS, st.sampled_from(["", ".", ".5"])))
_NUMBER_TEXT = st.one_of(
    _SIGNED, _SIGNED, _SIGNED, st.builds(".".__add__, _DIGITS), st.integers(300, 400).map("9".__mul__)
)
_WHITESPACE = st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003", "\u3000"])
_STRAY = st.sampled_from(["x", "e", "E", ";", ".", "-", "+", "(", ")"])
_PIECES = _NAMES | _NUMBER_TEXT | _WHITESPACE | _STRAY | st.sampled_from(["(", ")", ","])


_ARG_COUNTS = {"matrix": [6], "translate": [1, 2], "scale": [1, 2], "rotate": [1, 3], "skewX": [1], "skewY": [1]}


# Tokens float() reads that the grammar rejects, zeros with a sign, and
# angles on the tangent pole.
_FLOAT_ONLY = st.sampled_from(["1e5", "2E-1", "inf", "-inf", "nan", "+nan", "Infinity", "1_0"])
_ZEROS = st.sampled_from(["-0", "-0.", "-0.0", "-.0", "+0", "0"])
_POLES = st.sampled_from(["90", "-90", "270.", "+450.0", "-630"])


@st.composite
def _transform_lists(draw):
    """Lists of calls: half of them well formed, the rest with any name, count and spacing.

    A well-formed call's arguments are mostly grammar numbers, with now and
    then a token only float() reads, a signed zero (a rotate's -0 centre) or
    a pole angle (a skew's SINGULAR_SKEW).
    """
    if draw(st.booleans()):
        names = st.sampled_from(sorted(_ARG_COUNTS))
        gap = st.text(st.sampled_from(" \t\r\n,"), max_size=2)
        inner = st.text(_WHITESPACE, max_size=1)
        comma_run = st.sampled_from([",,", ", ,", ",\t,", " ,, "])
        separator = st.text(_WHITESPACE | st.just(","), min_size=1, max_size=2) | comma_run
        number = st.one_of(_NUMBER_TEXT, _NUMBER_TEXT, _NUMBER_TEXT, _FLOAT_ONLY, _ZEROS, _POLES)
    else:
        names = _NAMES
        gap = inner = separator = st.text(_WHITESPACE | _STRAY | st.just(","), max_size=2)
        number = _NUMBER_TEXT
    text = ""
    for _ in range(draw(st.integers(0, 4))):
        name = draw(names)
        count = draw(st.integers(0, 7) if names is _NAMES else st.sampled_from(_ARG_COUNTS[name]))
        args = [draw(number) for _ in range(count)]
        text += draw(gap) + name + draw(inner) + "(" + draw(inner) + (args[0] if args else "")
        for arg in args[1:]:
            text += draw(separator) + arg
        text += draw(inner) + ")"
    return text + draw(gap)


# The whole-list grammar: calls with number lists, between runs of separators.
_CALL = rf"({'|'.join(_ARG_COUNTS)})[{WSP}]*\(({NUMBER_LIST_PATTERN})\)"
_GRAMMAR_LIST_RE = re.compile(rf"[{SEPARATORS}]*(?:{_CALL}[{SEPARATORS}]*)*")
# How a short list completes: translate(tx) and scale(s); a rotate centre of -0 is 0.
_COMPLETE = {
    ("translate", 1): lambda tx: (tx, 0.0),
    ("scale", 1): lambda s: (s, s),
    ("rotate", 3): lambda angle, cx, cy: (angle, 0.0 if cx == 0 else cx, 0.0 if cy == 0 else cy),
}


def oracle_transform_list(text):
    """The ops of a list the grammar accepts with finite arguments in counts the
    functions take, and the SINGULAR_SKEW message of each pole skew; None for
    any other list."""
    if not _GRAMMAR_LIST_RE.fullmatch(text):
        return None
    ops, poles = [], []
    for name, raw_args in re.findall(_CALL, text):
        args = tuple(float(token) for token in re.findall(NUMBER_PATTERN, raw_args))
        if len(args) not in _ARG_COUNTS[name] or not all(map(math.isfinite, args)):
            return None
        ops.append(TransformOp(name, _COMPLETE.get((name, len(args)), lambda *same: same)(*args)))
        if name.startswith("skew") and math.isclose(math.fmod(abs(args[0]), 180.0), 90.0, abs_tol=1e-12):
            poles.append(f"{name}({format_number(args[0])}) is undefined (tangent pole)")
    return ops, poles


@settings(max_examples=300, deadline=None)
@given(text=_transform_lists() | st.lists(_PIECES, max_size=24).map("".join))
@example("skewX(90) skewY(-270.)")
def test_the_reader_reads_exactly_the_lists_the_grammar_accepts(text):
    diagnostics = Diagnostics()
    ops = parse_transform_list(text, diagnostics, "here")
    expected = oracle_transform_list(text)
    if expected is None:
        assert ops == [] and diagnostics.codes() == ["BAD_TRANSFORM"]
    else:
        assert repr(ops) == repr(expected[0])
        assert [(d.code, d.message) for d in diagnostics] == [("SINGULAR_SKEW", pole) for pole in expected[1]]


def test_rotate_centres_of_minus_zero_read_as_zero(diags):
    (op,) = parse_transform_list("rotate(30,-0,-0.0)", diags, AT)
    assert repr(op.args) == "(30.0, 0.0, 0.0)" and not list(diags)


# --- matrices -----------------------------------------------------------------


class TestOneOpProduct:
    """A chain of one op composes that op's matrix."""

    def test_scale(self):
        assert ctm_of(read_ops("scale(3, 1)")) == (3, 0, 0, 1, 0, 0)

    def test_zero_translate_is_identity(self):
        assert ctm_of(read_ops("translate(0, 0)")) == IDENTITY

    def test_rotate_90(self):
        got = ctm_of(read_ops("rotate(90)"))
        want = (0, 1, -1, 0, 0, 0)
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))

    def test_rotate_about_point_matches_conjugation(self):
        got = ctm_of(read_ops("rotate(20, 300, 300)"))
        want = oracle_compose(read_ops("translate(300, 300) rotate(20) translate(-300, -300)"))
        assert_matrix_close(got, want, tol=1e-12)

    def test_skews(self):
        t = math.tan(math.radians(10))
        assert ctm_of(read_ops("skewX(10)")) == (1, 0, t, 1, 0, 0)
        assert ctm_of(read_ops("skewY(10)")) == (1, t, 0, 1, 0, 0)

    @pytest.mark.parametrize("angle", [90, -90, 270, 450])
    def test_singular_skew(self, angle, diags):
        ops = parse_transform_list(f"skewX({angle})", diags, "here")
        assert len(ops) == 1 and ctm_of(ops) == IDENTITY
        assert [(d.code, d.location) for d in diags] == [("SINGULAR_SKEW", "here")]


class TestChainProduct:
    def test_inverse_pair_is_identity(self):
        got = ctm_of(read_ops("translate(2, 3) translate(-2, -3)"))
        assert_matrix_close(got, as_3x3(IDENTITY), tol=1e-12)

    def test_scale_then_translate(self):
        got = ctm_of(read_ops("scale(2) translate(5, 0)"))
        assert got == (2, 0, 0, 2, 10, 0)

    def test_singleton_equals_the_reference_op_matrix(self):
        (op,) = read_ops("rotate(20, 300, 300)")
        assert ctm_of([op]) == _reference_op_to_matrix(op)

    def test_brute_force_oracle(self):
        rng = random.Random(1)
        for _ in range(1000):
            ops = random_ops(rng)
            assert_matrix_close(ctm_of(ops), oracle_compose(ops))

    def test_associativity(self):
        rng = random.Random(2)
        for _ in range(300):
            a, b, c = (random_ops(rng, 1) or read_ops("translate(0)") for _ in range(3))
            left = ctm_of([*a, *b, *c])
            right = _reference_multiply(ctm_of(a + b), ctm_of(c))
            assert_matrix_close(left, as_3x3(right), tol=1e-12)


def _reference_multiply(m, n):
    """The reference product m . n, written on TransformMatrix fields, kept apart from the library."""
    return TransformMatrix(
        m.a * n.a + m.c * n.b,
        m.b * n.a + m.d * n.b,
        m.a * n.c + m.c * n.d,
        m.b * n.c + m.d * n.d,
        m.a * n.e + m.c * n.f + m.e,
        m.b * n.e + m.d * n.f + m.f,
    )


def _reference_op_to_matrix(op):
    """The reference op matrix, built from TransformMatrix values, kept apart from the library."""
    name, args = op
    if name == "matrix":
        return TransformMatrix(*args)
    if name == "translate":
        return TransformMatrix(1.0, 0.0, 0.0, 1.0, args[0], args[1])
    if name == "scale":
        return TransformMatrix(args[0], 0.0, 0.0, args[1], 0.0, 0.0)
    if name == "rotate":
        radians = math.radians(args[0])
        rotation = TransformMatrix(
            math.cos(radians), math.sin(radians), -math.sin(radians), math.cos(radians), 0.0, 0.0
        )
        if len(args) == 1:
            return rotation
        cx, cy = args[1], args[2]
        shifted = _reference_multiply(TransformMatrix(1, 0, 0, 1, cx, cy), rotation)
        return _reference_multiply(shifted, TransformMatrix(1, 0, 0, 1, -cx, -cy))
    if _on_tangent_pole(op):
        return IDENTITY
    t = math.tan(math.radians(args[0]))
    if name == "skewX":
        return TransformMatrix(1.0, 0.0, t, 1.0, 0.0, 0.0)
    return TransformMatrix(1.0, t, 0.0, 1.0, 0.0, 0.0)


# Signed zeros, values whose products overflow (1e200 squared is inf, and
# inf times 0 is nan), and skew angles on the tangent pole.
_EXACT_ARGS = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e200, -1e200, 90.0, -270.0])


def _ops(name, *args):
    """Ops named name with one argument drawn from each of args."""
    return st.tuples(*args).map(lambda drawn: TransformOp(name, drawn))


_EXACT_OPS = st.one_of(
    _ops("translate", _EXACT_ARGS, _EXACT_ARGS),
    _ops("scale", _EXACT_ARGS, _EXACT_ARGS),
    st.sampled_from([1e200, -1e200]).map(lambda s: TransformOp("scale", (s, s))),
    _ops("rotate", _EXACT_ARGS),
    _ops("rotate", _EXACT_ARGS, _EXACT_ARGS, _EXACT_ARGS),
    _ops("skewX", _EXACT_ARGS),
    _ops("skewY", _EXACT_ARGS),
    _ops("matrix", *[_EXACT_ARGS] * 6),
)


@settings(max_examples=400, deadline=None)
@given(head=st.lists(_EXACT_OPS, max_size=4), tail=st.lists(_EXACT_OPS, max_size=4))
def test_chain_extend_gives_the_left_fold_of_multiply_exactly(head, tail):
    want = IDENTITY
    for op in head + tail:
        want = _reference_multiply(want, _reference_op_to_matrix(op))
    got = EMPTY_CHAIN.extend(head).extend(tail).ctm
    assert type(got) is TransformMatrix
    assert list(map(repr, got)) == list(map(repr, want))
    # each op's own entries, signed zeros included, as Chain.extend and place read them
    assert [list(map(repr, _entries(*op))) for op in head] == [
        list(map(repr, _reference_op_to_matrix(op))) for op in head
    ]


def apply(m, point):
    return recalc_points(m, [point])[0]


class TestRecalcOnePoint:
    def test_identity(self):
        assert apply(IDENTITY, Point(7, 9)) == (7, 9)

    def test_rotate_about_point(self):
        m = ctm_of(read_ops("rotate(90, 300, 300)"))
        x, y = apply(m, Point(350, 300))
        assert abs(x - 300) < 1e-9 and abs(y - 350) < 1e-9

    def test_scale(self):
        assert apply(ctm_of(read_ops("scale(3, 1)")), Point(100, 50)) == (300, 50)

    def test_fold_matches_composition(self):
        rng = random.Random(3)
        for _ in range(1000):
            ops = random_ops(rng)
            point = Point(rng.uniform(-100, 100), rng.uniform(-100, 100))
            composed = apply(ctm_of(ops), point)
            # right-to-left fold: the last matrix in the product hits first
            folded = point
            for op in reversed(ops):
                folded = apply(ctm_of([op]), folded)
            assert abs(composed.x - folded.x) < 1e-9
            assert abs(composed.y - folded.y) < 1e-9


class TestRecalcPoints:
    def test_rotate_90_about_300_300(self):
        points = [Point(300, 300), Point(350, 300), Point(350, 250), Point(400, 250), Point(400, 300), Point(450, 300)]
        got = recalc_points(ctm_of(read_ops("rotate(90, 300, 300)")), points)
        expected = [(300, 300), (300, 350), (350, 350), (350, 400), (300, 400), (300, 450)]
        for (gx, gy), (ex, ey) in zip(got, expected):
            assert abs(gx - ex) < 1e-9 and abs(gy - ey) < 1e-9

    def test_identity_is_noop(self):
        points = [Point(1, 2), Point(3, 4)]
        assert recalc_points(IDENTITY, points) == points

    def test_translate(self):
        got = recalc_points(ctm_of(read_ops("translate(10, -5)")), [Point(0, 0), Point(1, 1)])
        assert got == [(10, -5), (11, -4)]

    def test_preserves_length_and_order(self):
        rng = random.Random(4)
        points = [Point(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(25)]
        got = recalc_points(ctm_of(read_ops("rotate(33)")), points)
        assert len(got) == len(points)
        back = recalc_points(ctm_of(read_ops("rotate(-33)")), got)
        for (gx, gy), (ex, ey) in zip(back, points):
            assert abs(gx - ex) < 1e-9 and abs(gy - ey) < 1e-9


# --- VML carrier strings --------------------------------------------------------


def skew_matrix(strategy, transform) -> str:
    """The v:skew matrix place() writes for a transform list."""
    return place(strategy, EMPTY_CHAIN.extend(read_ops(transform)), BOX, ROOT, 6, Diagnostics()).skew["matrix"]


class TestSkewMatrixStrings:
    """The v:skew matrix: the carrier's four linear entries, then two perspective slots written as 0."""

    def test_shape_scale(self):
        assert skew_matrix(SKEW_SHAPE, "scale(3, 1)") == "-3, 0, 0, -1, 0, 0"

    def test_shape_identity(self):
        # rotate(0) goes through the rotation rule, so its identity linear part is written
        assert skew_matrix(SKEW_SHAPE, "rotate(0)") == "-1, 0, 0, -1, 0, 0"

    def test_shape_skew_x(self):
        # -tan(10 deg) lands in the third slot
        assert skew_matrix(SKEW_SHAPE, "skewX(10)") == "-1, 0, -0.176327, -1, 0, 0"

    def test_path_rotate(self):
        assert skew_matrix(SKEW_PATH, "rotate(20)") == "0.939693, -0.34202, 0.34202, 0.939693, 0, 0"

    def test_path_identity(self):
        # place() writes no skew for an identity linear part, so the carrier is asked directly
        assert STRATEGIES[SKEW_PATH].carrier(IDENTITY) == (1, 0, 0, 1)

    def test_path_scale(self):
        assert skew_matrix(SKEW_PATH, "scale(2, 2)") == "2, 0, 0, 2, 0, 0"


class TestMatrixFilterParams:
    """The Matrix filter entries, in row-major order, as place() writes them."""

    def test_rotate_20(self, diags):
        placed = place(MATRIX_FILTER, EMPTY_CHAIN.extend(read_ops("rotate(20)")), BOX, ROOT, 2, diags)
        assert "(M11=0.94, M12=-0.34, M21=0.34, M22=0.94," in placed.filter

    def test_identity(self, diags):
        # rotate(0) goes through the rotation rule, so its identity entries are written
        placed = place(MATRIX_FILTER, EMPTY_CHAIN.extend(read_ops("rotate(0)")), BOX, ROOT, 6, diags)
        assert "(M11=1, M12=0, M21=0, M22=1," in placed.filter

    def test_scale(self, diags):
        placed = place(MATRIX_FILTER, EMPTY_CHAIN.extend(read_ops("scale(2, 3)")), BOX, ROOT, 6, diags)
        assert "(M11=2, M12=0, M21=0, M22=3," in placed.filter

    def test_rotation_rows_stay_unit_length(self):
        rng = random.Random(5)
        for _ in range(100):
            m = ctm_of([TransformOp("rotate", (rng.uniform(-360, 360),))])
            assert abs(m.a**2 + m.b**2 - 1) < 1e-9


# --- offsets --------------------------------------------------------------------


BOX = ShapeBox(100.0, 50.0, 70.0, 40.0)
ROOT = RootSize(800.0, 800.0)


def compute_offset(ops, box, root, strategy):
    """The position correction place() finds for a transform list."""
    placed = place(strategy, EMPTY_CHAIN.extend(ops), box, root, 6, Diagnostics())
    assert placed is not None
    return placed.offset


class TestComputeOffset:
    def test_scale_times_box(self):
        got = compute_offset(read_ops("scale(3, 1)"), ShapeBox(0, 150, 70, 50), ROOT, SKEW_SHAPE)
        assert got.dx == pytest.approx(210)
        assert got.dy == pytest.approx(50)

    def test_rotate_zero_angle(self):
        w, h = 70.0, 40.0
        got = compute_offset(read_ops("rotate(0)"), ShapeBox(0, 0, w, h), ROOT, SKEW_SHAPE)
        assert got == (-w, -h)

    def test_skew_path_rotate(self):
        # frozen from direct evaluation: cos20*1000 - sin20*1500 - 1000 and
        # sin20*1000 + cos20*1500 - 1500
        got = compute_offset(read_ops("rotate(20)"), ShapeBox(0, 0, 0, 0), RootSize(1000, 1500), SKEW_PATH)
        assert got.dx == pytest.approx(-573.3375942025947, abs=1e-9)
        assert got.dy == pytest.approx(251.55907450453128, abs=1e-9)

    def test_skew_x_formula(self):
        t = math.tan(math.radians(10))
        got = compute_offset(read_ops("skewX(10)"), BOX, ROOT, SKEW_SHAPE)
        assert got.dx == pytest.approx(t * BOX.y + BOX.width)
        assert got.dy == pytest.approx(BOX.height)

    def test_skew_y_formula(self):
        t = math.tan(math.radians(10))
        got = compute_offset(read_ops("skewY(10)"), BOX, ROOT, MATRIX_FILTER)
        assert got.dx == pytest.approx(BOX.width)
        assert got.dy == pytest.approx(t * BOX.x + BOX.height)

    def test_translate_has_no_offset(self):
        assert compute_offset(read_ops("translate(5, 6)"), BOX, ROOT, SKEW_SHAPE) == (0, 0)
        assert compute_offset(read_ops("translate(5, 6)"), BOX, ROOT, SKEW_PATH) == (0, 0)

    def test_rotate_about_origin_specializes_centered_form(self):
        rng = random.Random(6)
        for _ in range(100):
            angle = rng.uniform(-180, 180)
            box = ShapeBox(rng.uniform(-99, 99), rng.uniform(-99, 99), rng.uniform(0, 99), rng.uniform(0, 99))
            plain = compute_offset([TransformOp("rotate", (angle,))], box, ROOT, SKEW_SHAPE)
            centered = compute_offset([TransformOp("rotate", (angle, 0.0, 0.0))], box, ROOT, SKEW_SHAPE)
            assert plain.dx == pytest.approx(centered.dx, abs=1e-9)
            assert plain.dy == pytest.approx(centered.dy, abs=1e-9)

    def test_matrix_op_is_unsupported(self, diags):
        assert place(SKEW_SHAPE, EMPTY_CHAIN.extend(read_ops("matrix(1 0 0 1 0 0)")), BOX, ROOT, 6, diags) is None
        assert "UNSUPPORTED_TRANSFORM" in diags.codes()

    def test_random_draws_match_direct_arithmetic(self):
        # direct re-evaluation of each offset rule, written out independently
        rng = random.Random(8)
        for _ in range(100):
            angle = rng.uniform(-80, 80)
            r = math.radians(angle)
            box = ShapeBox(rng.uniform(-200, 200), rng.uniform(-200, 200), rng.uniform(0, 300), rng.uniform(0, 300))
            root = RootSize(rng.uniform(1, 2000), rng.uniform(1, 2000))
            x, y, w, h = box
            cx, cy = rng.uniform(-300, 300), rng.uniform(-300, 300)
            sx, sy = rng.uniform(0.1, 10), rng.uniform(0.1, 10)

            got = compute_offset([TransformOp("skewX", (angle,))], box, root, SKEW_SHAPE)
            assert abs(got.dx - (math.tan(r) * y + w)) < 1e-9 and abs(got.dy - h) < 1e-9

            got = compute_offset([TransformOp("skewY", (angle,))], box, root, SKEW_SHAPE)
            assert abs(got.dx - w) < 1e-9 and abs(got.dy - (math.tan(r) * x + h)) < 1e-9

            got = compute_offset([TransformOp("rotate", (angle,))], box, root, SKEW_SHAPE)
            assert abs(got.dx - (x * math.cos(r) - y * math.sin(r) - w)) < 1e-9
            assert abs(got.dy - (x * math.sin(r) + y * math.cos(r) - h)) < 1e-9

            got = compute_offset([TransformOp("rotate", (angle, cx, cy))], box, root, SKEW_SHAPE)
            assert abs(got.dx - (math.cos(r) * (x - cx) - math.sin(r) * (y - cy) - w + cx)) < 1e-9
            assert abs(got.dy - (math.sin(r) * (x - cx) + math.cos(r) * (y - cy) - h + cy)) < 1e-9

            got = compute_offset([TransformOp("scale", (sx, sy))], box, root, SKEW_SHAPE)
            assert abs(got.dx - sx * w) < 1e-9 and abs(got.dy - sy * h) < 1e-9

            got = compute_offset([TransformOp("rotate", (angle,))], box, root, SKEW_PATH)
            assert abs(got.dx - (math.cos(r) * root.width - math.sin(r) * root.height - root.width)) < 1e-9
            assert abs(got.dy - (math.sin(r) * root.width + math.cos(r) * root.height - root.height)) < 1e-9


class TestPlace:
    """place() returns what a mapper writes, read from the strategy table."""

    def test_skew_shape_carries_the_correction_in_the_skew_offset_slot(self, diags):
        placed = place(SKEW_SHAPE, EMPTY_CHAIN.extend(read_ops("scale(3, 1)")), ShapeBox(0, 150, 70, 50), ROOT, 6, diags)
        assert placed.origin is None and placed.filter is None
        assert placed.skew == {"on": "t", "matrix": "-3, 0, 0, -1, 0, 0", "offset": "-210px,-50px"}
        assert placed.offset == pytest.approx((210, 50))

    def test_skew_path_writes_the_plain_matrix_and_the_shift(self, diags):
        chain = EMPTY_CHAIN.extend(read_ops("translate(5, 6) scale(2)"))
        placed = place(SKEW_PATH, chain, ShapeBox(0, 0, 0, 0), RootSize(100, 50), 6, diags)
        assert placed.origin == (5, 6)
        assert placed.skew == {"on": "t", "matrix": "2, 0, 0, 2, 0, 0", "offset": "-100px,-50px"}

    def test_matrix_filter_moves_the_position_by_the_correction(self, diags):
        placed = place(MATRIX_FILTER, EMPTY_CHAIN.extend(read_ops("scale(2)")), BOX, ROOT, 2, diags)
        assert placed.skew is None
        assert placed.origin == (BOX.x - 2 * BOX.width, BOX.y - 2 * BOX.height)
        assert placed.filter == (
            "progid:DXImageTransform.Microsoft.Matrix(M11=2, M12=0, M21=0, M22=2, SizingMethod='auto expand')"
        )

    @pytest.mark.parametrize("strategy", [SKEW_SHAPE, SKEW_PATH, MATRIX_FILTER])
    def test_translation_alone_only_moves_the_origin(self, strategy, diags):
        placed = place(strategy, EMPTY_CHAIN.extend(read_ops("translate(5, 6)")), BOX, ROOT, 6, diags)
        assert placed == ((BOX.x + 5, BOX.y + 6), None, None, (0, 0))

    @pytest.mark.parametrize("strategy", [SKEW_SHAPE, SKEW_PATH, MATRIX_FILTER])
    def test_overflow_is_reported_once(self, strategy, diags):
        big = float("1" + "0" * 308)  # finite, but twice it is not
        assert place(strategy, EMPTY_CHAIN.extend([TransformOp("translate", (big, 0.0))]), ShapeBox(big, 0, 1, 1), ROOT, 6, diags) is None
        assert [(d.code, d.message) for d in diags] == [
            ("BAD_TRANSFORM", "transform overflows to a non-finite value; ignored")
        ]

    @pytest.mark.parametrize("strategy", [SKEW_SHAPE, SKEW_PATH, MATRIX_FILTER])
    def test_lone_matrix_is_unsupported(self, strategy, diags):
        assert place(strategy, EMPTY_CHAIN.extend(read_ops("matrix(1 0 0 1 0 0)")), BOX, ROOT, 6, diags) is None
        assert diags.codes() == ["UNSUPPORTED_TRANSFORM"]

    @pytest.mark.parametrize("strategy", [RECALC_POINTS, DISTRIBUTE])
    def test_strategies_without_offsets_place_nothing(self, strategy):
        diags = Diagnostics()
        assert place(strategy, EMPTY_CHAIN.extend(read_ops("scale(2)")), BOX, ROOT, 6, diags) is None
        assert diags.codes() == ["UNSUPPORTED_TRANSFORM"]


# Arguments up to the float maximum, and skew angles on the tangent pole.
_ARGS = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False) | st.sampled_from([0.0, 1.0, -1.0, 45.0])
_POLE_ANGLES = st.sampled_from([90.0, -90.0, 270.0, 450.0, -630.0])
_OPS = st.one_of(
    _ops("translate", _ARGS, _ARGS),
    _ops("scale", _ARGS, _ARGS),
    _ops("rotate", _ARGS),
    _ops("rotate", _ARGS, _ARGS, _ARGS),
    _ops("skewX", _ARGS | _POLE_ANGLES),
    _ops("skewY", _ARGS | _POLE_ANGLES),
    _ops("matrix", *[_ARGS] * 6),
)


@settings(max_examples=400, deadline=None)
@given(
    strategy=st.sampled_from([SKEW_SHAPE, SKEW_PATH, MATRIX_FILTER]),
    ops=st.lists(_OPS, max_size=3),
    box=st.builds(ShapeBox, _ARGS, _ARGS, _ARGS, _ARGS),
    root=st.builds(RootSize, _ARGS, _ARGS),
    precision=st.integers(0, 12),
)
def test_place_either_places_finite_values_or_reports_one_error(strategy, ops, box, root, precision):
    diags = Diagnostics()
    placed = place(strategy, EMPTY_CHAIN.extend(ops), box, root, precision, diags)
    # A tangent-pole skew composes as the identity; it was reported when its
    # list was read.  place() reports at most one error, and only when it
    # places nothing.
    codes = diags.codes()
    assert all(d.severity == "error" for d in diags)
    assert codes in ([], ["UNSUPPORTED_TRANSFORM"], ["BAD_TRANSFORM"])
    assert (placed is None) == (len(codes) == 1)
    if placed is not None:
        assert all(map(math.isfinite, (*(placed.origin or ()), *placed.offset)))
        for text in (*(placed.skew or {}).values(), placed.filter or ""):
            assert "inf" not in text and "nan" not in text


def _transform_attribute(ops) -> str:
    """The transform attribute for ops, empty for none; every argument parses back exactly."""
    if not ops:
        return ""
    calls = (f"{op.name}({' '.join(format(Decimal(repr(arg)), 'f') for arg in op.args)})" for op in ops)
    return f' transform="{" ".join(calls)}"'


# textPath is left out: its target path is mapped with the text's chain, so a
# group's transform reaches text on a path twice.
_LEAVES = [
    '<rect x="1" y="2" width="3" height="4"{}/>',
    '<circle cx="5" cy="6" r="2"{}/>',
    '<path d="M 0 0 L 5 5"{}/>',
    '<polyline points="0,0 10,0 10,10"{}/>',
    '<text x="3" y="9" font-size="8"{}>hi</text>',
    '<foreignObject x="1" y="1" width="9" height="9"{}>hi</foreignObject>',
]


@settings(max_examples=200, deadline=None)
@given(
    leaf=st.sampled_from(_LEAVES),
    group_lists=st.lists(st.lists(_OPS, max_size=2), max_size=3),
    own=st.lists(_OPS, max_size=2),
)
def test_nested_groups_map_like_the_leaf_carrying_the_whole_list(leaf, group_lists, own):
    closing = "</g>" * len(group_lists)
    nested = "".join(f"<g{_transform_attribute(ops)}>" for ops in group_lists)
    nested += leaf.format(_transform_attribute(own)) + closing
    whole = [op for ops in group_lists for op in ops] + own
    flat = "<g>" * len(group_lists) + leaf.format(_transform_attribute(whole)) + closing
    nested_output, nested_diagnostics = convert_text(wrap_svg(nested))
    flat_output, flat_diagnostics = convert_text(wrap_svg(flat))
    assert nested_output == flat_output
    assert [(d.code, d.message) for d in nested_diagnostics] == [(d.code, d.message) for d in flat_diagnostics]
    assert [str(d) for d in nested_diagnostics if d.code != "SINGULAR_SKEW"] == [
        str(d) for d in flat_diagnostics if d.code != "SINGULAR_SKEW"
    ]
    # Each tangent-pole skew is reported once, at the list that holds it.
    leaf_name = leaf[1 : leaf.index(" ")]
    holders = [(ops, "/g[0]" * (depth + 1)) for depth, ops in enumerate(group_lists)]
    holders.append((own, "/g[0]" * len(group_lists) + f"/{leaf_name}[0]"))
    expected = [f"svg{path}@transform" for ops, path in holders for op in ops if _on_tangent_pole(op)]
    assert [d.location for d in nested_diagnostics if d.code == "SINGULAR_SKEW"] == expected


def _on_tangent_pole(op) -> bool:
    """A skew at 90 + k*180 degrees."""
    return op.name in ("skewX", "skewY") and math.isclose(math.fmod(abs(op.args[0]), 180.0), 90.0, abs_tol=1e-12)


@pytest.mark.parametrize(
    "children", ["", '<a xlink:href="#x"/>', '<rect width="4" height="3"/>' * 5], ids=["empty", "anchor", "five-rects"]
)
def test_a_group_skew_on_the_pole_is_reported_once_at_its_list(children):
    text = wrap_svg(f'<g transform="skewX(90)">{children}</g>')
    output, diagnostics = convert_text(text)
    assert output is not None
    assert [str(d) for d in diagnostics] == [
        "error SINGULAR_SKEW: skewX(90) is undefined (tangent pole) @svg/g[0]@transform"
    ]
    strict_output, diagnostics = convert_text(text, ConvertOptions(strict=True))
    assert strict_output is None
    assert diagnostics.codes() == ["SINGULAR_SKEW"]


def test_a_pole_skew_in_an_unsupported_list_is_a_second_fault():
    _, diagnostics = convert_text(wrap_svg('<rect width="4" height="3" transform="skewY(-90) rotate(30)"/>'))
    assert [(d.code, d.location) for d in diagnostics] == [
        ("SINGULAR_SKEW", "svg/rect[0]@transform"),
        ("UNSUPPORTED_TRANSFORM", "svg/rect[0]"),
    ]


# --- support matrix --------------------------------------------------------------


MULTI_COMBOS = [
    read_ops("scale(2) translate(1, 1)"),
    read_ops("scale(2) skewX(10)"),
    read_ops("skewX(10) skewY(10)"),
    read_ops("scale(2) translate(1, 1) skewX(10) skewY(10)"),
    read_ops("rotate(30) scale(2)"),
    read_ops("rotate(30) translate(1, 1)"),
]

SUPPORT_GRID = {
    RECALC_POINTS: [True, True, True, True, True, True],
    SKEW_SHAPE: [True, True, True, True, False, False],
    SKEW_PATH: [True, False, False, False, False, False],
    MATRIX_FILTER: [False, True, True, False, False, False],
    DISTRIBUTE: [True, True, True, True, True, True],
}


class TestCheckSupport:
    """The support grid, asked the way the converter asks it (see conftest.rejects)."""

    @pytest.mark.parametrize("strategy", list(SUPPORT_GRID))
    @pytest.mark.parametrize("combo_index", range(len(MULTI_COMBOS)))
    def test_grid(self, strategy, combo_index):
        expected_ok = SUPPORT_GRID[strategy][combo_index]
        assert rejects(strategy, MULTI_COMBOS[combo_index]) is not expected_ok

    @pytest.mark.parametrize("strategy", list(SUPPORT_GRID))
    def test_empty_list_supported(self, strategy):
        assert not rejects(strategy, [])

    @pytest.mark.parametrize("strategy", list(SUPPORT_GRID))
    @pytest.mark.parametrize("op", read_ops("scale(2) translate(1) rotate(20) rotate(20, 1, 2) skewX(5) skewY(5)"))
    def test_single_op_supported_everywhere(self, strategy, op):
        assert not rejects(strategy, [op])

    def test_multi_rotate_on_points_is_fine(self):
        assert not rejects(RECALC_POINTS, read_ops("rotate(30) scale(2) translate(1, 1)"))

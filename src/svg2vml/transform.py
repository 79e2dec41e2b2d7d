"""Affine transform parsing, matrix algebra and VML simulation strategies.

VML has no general transform attribute, so each element family gets its own
simulation strategy:

* skew-shape      rect/circle/ellipse: a skew child with the sign-negated
                  matrix plus a manual position correction
* skew-path       path: a skew child with the plain matrix; corrections are
                  computed from the root element size
* recalc-points   line/polyline/polygon: every point is recomputed through
                  the transform, no extra markup
* matrix-filter   text/textPath/foreignObject: a style filter carrying the
                  2x2 linear entries plus a position correction
* distribute      g: the group's transform list is prepended to each child's

A transform list is read in one regex pass when the whole list matches the
grammar, with `numeric`'s number lists as arguments, and holds no skew on
the tangent pole; a scanner reads the rest and words its diagnostics: the
BAD_TRANSFORM message, or one SINGULAR_SKEW per pole skew, reported once
where the list is read.  A Chain is plain data, a list with its
left-to-right product: a group extends its parent's chain by its own list,
so the product of a group's list is composed once for all its descendants,
and a leaf extends it by its own list only.

One table, STRATEGIES, holds per strategy which transform kinds a
multi-transform list may mix, which linear offset rule corrects the
position, how a lone rotate is handled, and the carrier: the v:skew matrix
writer, whose offset slot takes the correction, or none for the matrix
filter, whose correction moves the position instead.  Only the three
strategies that use offsets have a row; point recalculation takes any list,
and distribution defers to the children.  No offset rule covers a lone
matrix(), so every row rejects it.  place() is the only reader of the
table and returns everything a mapper writes: the moved box origin, the
v:skew attributes or the Matrix filter text, and the raw offset.  It
reports an unsupported list, or any of those values overflowing, and the
element then stays untransformed.

Matrices are the usual six-value affine form (a, b, c, d, e, f), read as
[[a, c, e], [b, d, f], [0, 0, 1]].  Angles are written in degrees in source
and converted to radians here.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple, Optional, Sequence

from .diagnostics import Diagnostics, LocationLike
from .numeric import (
    NUMBER_LIST_PATTERN, NUMBER_RE, NUMBER_TOKEN_RE, SEPARATORS, WSP, format_number, format_numbers, split_list,
)
from .svg_dom import Point


class TransformMatrix(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float


IDENTITY = TransformMatrix(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


class TransformOp(NamedTuple):
    """One parsed transform definition with defaults already applied."""

    name: str  # matrix | translate | scale | rotate | skewX | skewY
    args: tuple[float, ...]


def translate(tx: float, ty: float = 0.0) -> TransformOp:
    return TransformOp("translate", (float(tx), float(ty)))


def scale(sx: float, sy: Optional[float] = None) -> TransformOp:
    return TransformOp("scale", (float(sx), float(sx if sy is None else sy)))


def rotate(angle: float, cx: Optional[float] = None, cy: Optional[float] = None) -> TransformOp:
    if cx is None and cy is None:
        return TransformOp("rotate", (float(angle),))
    return TransformOp("rotate", (float(angle), float(cx or 0.0), float(cy or 0.0)))


def skew_x(angle: float) -> TransformOp:
    return TransformOp("skewX", (float(angle),))


def skew_y(angle: float) -> TransformOp:
    return TransformOp("skewY", (float(angle),))


def matrix(a: float, b: float, c: float, d: float, e: float, f: float) -> TransformOp:
    return TransformOp("matrix", (float(a), float(b), float(c), float(d), float(e), float(f)))


# Constructor and accepted argument counts, before defaults are applied.
_FUNCTIONS = {
    "matrix": (matrix, (6,)),
    "translate": (translate, (1, 2)),
    "scale": (scale, (1, 2)),
    "rotate": (rotate, (1, 3)),
    "skewX": (skew_x, (1,)),
    "skewY": (skew_y, (1,)),
}

_FUNCTION_RE = re.compile(rf"([A-Za-z]+)[{WSP}]*\(([^)]*)\)")

# The whole list grammar: calls with number lists, between runs of separators.
_LIST_RE = re.compile(
    rf"[{SEPARATORS}]*(?:(?:{'|'.join(_FUNCTIONS)})[{WSP}]*\({NUMBER_LIST_PATTERN}\)[{SEPARATORS}]*)*"
)


def parse_transform_list(
    value: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> list[TransformOp]:
    """Parse a transform attribute into ops, filling in default arguments.

    A list the grammar accepts whole, with finite arguments in counts the
    functions take and no skew on the tangent pole, is read in one pass;
    anything else goes to the scanner, which decides and words the
    diagnostics.
    """
    if _LIST_RE.fullmatch(value):
        ops = []
        for name, raw_args in _FUNCTION_RE.findall(value):
            constructor, counts = _FUNCTIONS[name]
            args = [float(token) for token in NUMBER_RE.findall(raw_args)]
            if len(args) not in counts or not all(map(math.isfinite, args)):
                break
            ops.append(constructor(*args))
        else:
            if not any(map(_is_singular, ops)):
                return ops
    return _scan_transform_list(value, diagnostics, location)


def _scan_transform_list(
    value: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> list[TransformOp]:
    """Scan a transform list call by call; the first fault is reported and
    the whole list dropped.  A list that reads keeps its pole skews, each
    reported as SINGULAR_SKEW."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    ops: list[TransformOp] = []
    position = 0
    for found in _FUNCTION_RE.finditer(value):
        gap = value[position : found.start()]
        if gap.strip(SEPARATORS):
            diagnostics.error("BAD_TRANSFORM", f"unparseable transform text {gap.strip(WSP)!r}", location)
            return []
        position = found.end()
        name, raw_args = found.group(1), found.group(2)
        if name not in _FUNCTIONS:
            diagnostics.error("BAD_TRANSFORM", f"unknown transform function {name!r}", location)
            return []
        constructor, counts = _FUNCTIONS[name]
        tokens = split_list(raw_args)
        if len(tokens) not in counts:
            diagnostics.error(
                "BAD_TRANSFORM", f"{name}() takes {counts} arguments, got {len(tokens)}", location
            )
            return []
        if not all(NUMBER_TOKEN_RE.match(token) for token in tokens):
            diagnostics.error("BAD_TRANSFORM", f"non-numeric argument in {name}({raw_args})", location)
            return []
        args = [float(token) for token in tokens]
        if not all(map(math.isfinite, args)):
            diagnostics.error("BAD_TRANSFORM", f"argument out of range in {name}({raw_args})", location)
            return []
        ops.append(constructor(*args))
    if value[position:].strip(SEPARATORS):
        diagnostics.error(
            "BAD_TRANSFORM", f"trailing transform text {value[position:].strip(WSP)!r}", location
        )
        return []
    for op in filter(_is_singular, ops):
        message = f"{op.name}({format_number(op.args[0])}) is undefined (tangent pole)"
        diagnostics.error("SINGULAR_SKEW", message, location)
    return ops


def multiply(m: TransformMatrix, n: TransformMatrix) -> TransformMatrix:
    """Product m . n of two affine matrices (n applies first to points)."""
    return TransformMatrix(
        m.a * n.a + m.c * n.b,
        m.b * n.a + m.d * n.b,
        m.a * n.c + m.c * n.d,
        m.b * n.c + m.d * n.d,
        m.a * n.e + m.c * n.f + m.e,
        m.b * n.e + m.d * n.f + m.f,
    )


def _is_tangent_pole(angle_deg: float) -> bool:
    return math.isclose(math.fmod(abs(angle_deg), 180.0), 90.0, abs_tol=1e-12)


def _is_singular(op: TransformOp) -> bool:
    return op.name in ("skewX", "skewY") and _is_tangent_pole(op.args[0])


def op_to_matrix(op: TransformOp) -> TransformMatrix:
    """Equivalent matrix of a single transform definition.

    Skews at 90 + k*180 degrees hit the tangent pole and count as the
    identity; parse_transform_list reports them.
    """
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
        shifted = multiply(TransformMatrix(1, 0, 0, 1, cx, cy), rotation)
        return multiply(shifted, TransformMatrix(1, 0, 0, 1, -cx, -cy))
    if name in ("skewX", "skewY"):
        if _is_tangent_pole(args[0]):
            return IDENTITY
        t = math.tan(math.radians(args[0]))
        if name == "skewX":
            return TransformMatrix(1.0, 0.0, t, 1.0, 0.0, 0.0)
        return TransformMatrix(1.0, t, 0.0, 1.0, 0.0, 0.0)
    raise ValueError(f"unknown transform op {name!r}")


class Chain(NamedTuple):
    """A transform list with its left-to-right product, composed once.

    A group's chain is shared by everything under it.
    """

    ops: tuple[TransformOp, ...]
    ctm: TransformMatrix

    def extend(self, ops: Sequence[TransformOp]) -> "Chain":
        """This chain followed by ops.

        The product is a left fold, so extending it gives the same floats
        as composing the whole list from the identity.
        """
        if not ops:
            return self
        ctm = self.ctm
        for op in ops:
            ctm = multiply(ctm, op_to_matrix(op))
        return Chain(self.ops + tuple(ops), ctm)


EMPTY_CHAIN = Chain((), IDENTITY)


def compose_ctm(ops: Sequence[TransformOp]) -> TransformMatrix:
    """Left-to-right product of a transform list; empty list is identity."""
    return EMPTY_CHAIN.extend(ops).ctm


def apply_to_point(m: TransformMatrix, point: Point) -> Point:
    return Point(m.a * point.x + m.c * point.y + m.e, m.b * point.x + m.d * point.y + m.f)


def recalc_points(m: TransformMatrix, points: list[Point]) -> list[Point]:
    """Apply the matrix to every point, preserving order."""
    a, b, c, d, e, f = m
    return [Point(a * x + c * y + e, b * x + d * y + f) for x, y in points]


# --- offset rules -----------------------------------------------------------
# VML's skew element and the matrix filter transform a shape in place; the
# coordinate shift a transform implies has to be applied by hand.  These
# rules were established experimentally against IE rendering and are not
# derivable from the matrices alone.  A translation (any identity linear
# part) needs no correction: its shift goes into the output coordinates.


class Offset(NamedTuple):
    dx: float
    dy: float


class ShapeBox(NamedTuple):
    """Untransformed element geometry consumed by the offset rules."""

    x: float
    y: float
    width: float
    height: float


class RootSize(NamedTuple):
    width: float
    height: float


def offset_for_linear_shape(m: TransformMatrix, box: ShapeBox, root: RootSize) -> Offset:
    """Position correction for a skewed/filtered box, from the linear part.

    Specializes to (sx*w, sy*h) for scale, (tan*y + w, h) for skewX,
    (w, tan*x + h) for skewY and (w, h) for the identity.  Rotation does not
    follow this rule and is handled separately.
    """
    return Offset(m.a * box.width + m.c * box.y, m.b * box.x + m.d * box.height)


def offset_for_linear_path(m: TransformMatrix, box: ShapeBox, root: RootSize) -> Offset:
    """Position correction for a skewed path, from the root element size."""
    return Offset(
        m.a * root.width + m.c * root.height - root.width,
        m.b * root.width + m.d * root.height - root.height,
    )


def _rotate_offset(angle_deg: float, box: ShapeBox, cx: float = 0.0, cy: float = 0.0) -> Offset:
    radians = math.radians(angle_deg)
    cos_a, sin_a = math.cos(radians), math.sin(radians)
    return Offset(
        cos_a * (box.x - cx) - sin_a * (box.y - cy) - box.width + cx,
        sin_a * (box.x - cx) + cos_a * (box.y - cy) - box.height + cy,
    )


# --- VML carrier strings ----------------------------------------------------


def skew_matrix_for_shape(m: TransformMatrix, precision: int = 6) -> str:
    """Skew matrix string for shapes: sign-negated linear part.

    The last two slots are perspective terms, not pixel offsets; they stay
    zero and translation is carried by the output coordinates instead.
    """
    return ", ".join(format_numbers((-m.a, -m.b, -m.c, -m.d, 0.0, 0.0), precision))


def skew_matrix_for_path(m: TransformMatrix, precision: int = 6) -> str:
    """Skew matrix string for paths: plain linear part, row-major order."""
    return ", ".join(format_numbers((m.a, m.c, m.b, m.d, 0.0, 0.0), precision))


def _matrix_filter_text(m: TransformMatrix, precision: int) -> str:
    m11, m12, m21, m22 = format_numbers((m.a, m.c, m.b, m.d), precision)
    return (
        "progid:DXImageTransform.Microsoft.Matrix("
        f"M11={m11}, M12={m12}, M21={m21}, M22={m22}, SizingMethod='auto expand')"
    )


# --- strategy table ---------------------------------------------------------

SKEW_SHAPE = "skew-shape"
SKEW_PATH = "skew-path"
RECALC_POINTS = "recalc-points"
MATRIX_FILTER = "matrix-filter"
DISTRIBUTE = "distribute"

STRATEGY_BY_TAG = {
    "rect": SKEW_SHAPE,
    "circle": SKEW_SHAPE,
    "ellipse": SKEW_SHAPE,
    "path": SKEW_PATH,
    "line": RECALC_POINTS,
    "polyline": RECALC_POINTS,
    "polygon": RECALC_POINTS,
    "text": MATRIX_FILTER,
    "textPath": MATRIX_FILTER,
    "foreignObject": MATRIX_FILTER,
    "g": DISTRIBUTE,
}

# How a lone rotate is simulated when it does not go through the linear
# offset rule: in place, or after moving the coordinates to its centre.
ROTATE_IN_PLACE = "in-place"
ROTATE_ABOUT_CENTRE = "about-centre"


class StrategyRule(NamedTuple):
    """What one strategy can simulate, with which offset rule and carrier.

    multi_ops  transform kinds a list of two or more may mix
    offset     the linear offset rule, from the matrix and the element box
               or the root size
    rotation   how a lone rotate is simulated; None sends it through the
               linear rule and drops the translation of its centre
    carrier    the v:skew matrix writer, whose offset slot takes the
               correction; None for the matrix filter, which has no offset
               slot, so its correction moves the position
    """

    multi_ops: frozenset
    offset: Callable[[TransformMatrix, ShapeBox, RootSize], Offset]
    rotation: Optional[str]
    carrier: Optional[Callable[[TransformMatrix, int], str]]


# The manual offset corrections are only worked out for these combinations.
STRATEGIES = {
    SKEW_SHAPE: StrategyRule(
        frozenset({"scale", "translate", "skewX", "skewY"}),
        offset_for_linear_shape,
        ROTATE_ABOUT_CENTRE,
        skew_matrix_for_shape,
    ),
    SKEW_PATH: StrategyRule(
        frozenset({"scale", "translate"}),
        offset_for_linear_path,
        None,
        skew_matrix_for_path,
    ),
    MATRIX_FILTER: StrategyRule(
        frozenset({"scale", "skewX", "skewY"}),
        offset_for_linear_shape,
        ROTATE_IN_PLACE,
        None,
    ),
}


class Placement(NamedTuple):
    """What a mapper writes for a transformed element.

    origin  the box origin after the transform, for left and top; for a
            path, whose box sits at the origin, the shift added to every
            coordinate.  None keeps the position as written
    skew    the v:skew attributes, or None
    filter  the Matrix filter text, or None
    offset  the raw position correction
    """

    origin: Optional[tuple[float, float]]
    skew: Optional[dict[str, str]]
    filter: Optional[str]
    offset: Offset


_NO_OFFSET = Offset(0.0, 0.0)

# The one overflow rule: an element whose transformed values would not be
# finite is drawn untransformed, with this BAD_TRANSFORM message.
OVERFLOW_IGNORED = "transform overflows to a non-finite value; ignored"


def place(
    strategy: str,
    chain: Chain,
    box: ShapeBox,
    root: RootSize,
    precision: int,
    diagnostics: Diagnostics,
    location: LocationLike = "",
) -> Optional[Placement]:
    """Simulate a transform chain with the strategy's offset rule and carrier.

    Returns None, after reporting UNSUPPORTED_TRANSFORM when the strategy
    has no rule for the list or BAD_TRANSFORM when a value to be written
    overflows; the element then stays untransformed.
    """
    rule = STRATEGIES.get(strategy)
    if rule is None:
        diagnostics.error("UNSUPPORTED_TRANSFORM", f"strategy {strategy} does not use offsets", location)
        return None
    ops = chain.ops
    if len(ops) > 1:
        offending = {op.name for op in ops} - rule.multi_ops
        if offending:
            message = f"multi-transform with {', '.join(sorted(offending))} is not supported for {strategy}"
            diagnostics.error("UNSUPPORTED_TRANSFORM", message, location)
            return None
    elif ops and ops[0].name == "matrix":
        diagnostics.error("UNSUPPORTED_TRANSFORM", f"matrix() has no offset rule for {strategy}", location)
        return None
    lone_rotate = len(ops) == 1 and ops[0].name == "rotate"
    if lone_rotate and rule.rotation is not None:
        angle, *centre = ops[0].args
        linear: Optional[TransformMatrix] = op_to_matrix(rotate(angle))
        # The re-shift from the centre is folded into the offset.
        shift = (-centre[0], -centre[1]) if centre and rule.rotation == ROTATE_ABOUT_CENTRE else None
        offset = _rotate_offset(angle, box, *centre)
    else:
        ctm = chain.ctm
        shift = None if lone_rotate or (ctm.e, ctm.f) == (0.0, 0.0) else (ctm.e, ctm.f)
        linear = None if ctm[:4] == IDENTITY[:4] else ctm
        offset = _NO_OFFSET if linear is None else rule.offset(ctm, box, root)
    dx, dy = shift or (0.0, 0.0)
    if rule.carrier is None and (linear is not None or shift is not None):
        # The matrix filter has no offset slot; its correction moves the position.
        origin = (box.x + dx - offset.dx, box.y + dy - offset.dy)
    else:
        origin = None if shift is None else (box.x + dx, box.y + dy)
    if not all(map(math.isfinite, (*(origin or ()), *offset, *(linear or IDENTITY)[:4]))):
        diagnostics.error("BAD_TRANSFORM", OVERFLOW_IGNORED, location)
        return None
    skew = filter_text = None
    if linear is not None and rule.carrier is None:
        filter_text = _matrix_filter_text(linear, precision)
    elif linear is not None:
        # The correction moves the shape up and left by the offset; the
        # skew offset slot applies additively, hence the sign flip.
        offset_text = "{}px,{}px".format(*format_numbers((-offset.dx, -offset.dy), precision))
        skew = {"on": "t", "matrix": rule.carrier(linear, precision), "offset": offset_text}
    return Placement(origin, skew, filter_text, offset)

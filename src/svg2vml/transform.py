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

A transform list is read in one pass: splitting it on the call pattern gives
each call's gap, name and arguments, and numeric.read_numbers decides the
arguments.  One table, _SIGNATURES, gives each function's argument counts
and completes a short list (translate(tx), scale(s)).  The first fault drops
the whole list with one BAD_TRANSFORM, whose message is worded from the
call's tokens only then; a list that reads reports one SINGULAR_SKEW per
skew on the tangent pole.  A Chain is plain data, a list with its
left-to-right product: a group extends its parent's chain by its own list,
so the product of a group's list is composed once for all its descendants,
and a leaf extends it by its own list only.  Extending folds each op's
six entries on plain floats, left to right, so a chain extended list by
list gives the same floats as the whole list composed from the identity.

One table, STRATEGIES, holds per strategy which transform kinds a
multi-transform list may mix, which linear offset rule corrects the
position, how a lone rotate is handled, and the carrier: the v:skew
matrix's four linear entries in writing order, formatted with the
correction for the skew's offset slot in one pass, or none for the matrix
filter, whose correction moves the position instead.  Only the three
strategies that use offsets have a row, and STRATEGY_BY_TAG names only the
seven tags they place; point recalculation takes any list, and distribution
defers to the children.  No offset rule covers a lone matrix(), so every
row rejects it.  place() is the only reader of the table and returns
everything a mapper writes: the moved box origin, the v:skew attributes or
the Matrix filter text, and the raw offset.  It reports an unsupported
list, or any of those values overflowing, and the element then stays
untransformed.

Matrices are the usual six-value affine form (a, b, c, d, e, f), read as
[[a, c, e], [b, d, f], [0, 0, 1]].  Angles are written in degrees in source
and converted to radians here.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from itertools import starmap

from .diagnostics import Diagnostics, LocationLike
from .numeric import (
    NUMBER_RE, SEPARATORS, WSP, format_number, format_numbers, read_numbers, split_list,
)


# A matrix is a plain 6-tuple (a, b, c, d, e, f), and one parsed transform
# definition, its defaults already applied, a (name, args) pair: name is one
# of matrix, translate, scale, rotate, skewX and skewY, args a float tuple.
IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


# Each function's argument counts, each with what completes the arguments
# read: None keeps them as they are, a function returns them completed.
# translate(tx) is translate(tx, 0) and scale(s) is scale(s, s); a rotate
# centre coordinate of -0 reads as 0.
_SIGNATURES = {
    "matrix": {6: None},
    "translate": {1: lambda tx: (tx, 0.0), 2: None},
    "scale": {1: lambda s: (s, s), 2: None},
    "rotate": {1: None, 3: lambda angle, cx, cy: (angle, cx or 0.0, cy or 0.0)},
    "skewX": {1: None},
    "skewY": {1: None},
}
_SKEWS = ("skewX", "skewY")

_FUNCTION_RE = re.compile(rf"([A-Za-z]+)[{WSP}]*\(([^)]*)\)")


def parse_transform_list(value: str, diagnostics: Diagnostics, location: LocationLike) -> list[tuple]:
    """Parse a transform attribute into ops, filling in default arguments.

    The first fault is reported and the whole list dropped.  A list that
    reads keeps its skews on the tangent pole, each reported as
    SINGULAR_SKEW.
    """
    pieces = _FUNCTION_RE.split(value)
    ops: list[tuple] = []
    poles: list[tuple] = []
    it = iter(pieces)
    for gap, name, raw_args in zip(it, it, it):
        forms = _SIGNATURES.get(name)
        args = None if forms is None else read_numbers(raw_args)
        if gap.strip(SEPARATORS) or args is None or len(args) not in forms:
            diagnostics.error("BAD_TRANSFORM", _call_fault(gap, name, raw_args), location)
            return []
        complete = forms[len(args)]
        op = (name, tuple(args) if complete is None else complete(*args))
        ops.append(op)
        if name in _SKEWS and _is_tangent_pole(args[0]):
            poles.append(op)
    if pieces[-1].strip(SEPARATORS):
        diagnostics.error("BAD_TRANSFORM", f"trailing transform text {pieces[-1].strip(WSP)!r}", location)
        return []
    for name, args in poles:
        message = f"{name}({format_number(args[0])}) is undefined (tangent pole)"
        diagnostics.error("SINGULAR_SKEW", message, location)
    return ops


def _call_fault(gap: str, name: str, raw_args: str) -> str:
    """The BAD_TRANSFORM message for a call that does not read: its first fault
    in the order gap, name, count, number, range.  The regex only words it."""
    if gap.strip(SEPARATORS):
        return f"unparseable transform text {gap.strip(WSP)!r}"
    forms = _SIGNATURES.get(name)
    if forms is None:
        return f"unknown transform function {name!r}"
    tokens = split_list(raw_args)
    if len(tokens) not in forms:
        return f"{name}() takes {' or '.join(map(str, forms))} arguments, got {len(tokens)}"
    if not all(map(NUMBER_RE.fullmatch, tokens)):
        return f"non-numeric argument in {name}({raw_args})"
    return f"argument out of range in {name}({raw_args})"


def _fold(m: Sequence[float], matrices: Iterable[Sequence[float]]) -> tuple[float, ...]:
    """The product m . n1 . n2 ... of six-entry affine matrices, folded left on plain floats."""
    a, b, c, d, e, f = m
    for na, nb, nc, nd, ne, nf in matrices:
        a, b, c, d, e, f = (
            a * na + c * nb,
            b * na + d * nb,
            a * nc + c * nd,
            b * nc + d * nd,
            a * ne + c * nf + e,
            b * ne + d * nf + f,
        )
    return a, b, c, d, e, f


def _is_tangent_pole(angle_deg: float) -> bool:
    return math.isclose(math.fmod(abs(angle_deg), 180.0), 90.0, abs_tol=1e-12)


def _entries(name: str, args: tuple[float, ...]) -> tuple[float, ...]:
    """The six entries of one op's matrix, as plain floats.

    Skews at 90 + k*180 degrees hit the tangent pole and count as the
    identity; parse_transform_list reports them.
    """
    if name == "scale":
        return args[0], 0.0, 0.0, args[1], 0.0, 0.0
    if name in _SKEWS:
        if _is_tangent_pole(args[0]):
            return IDENTITY
        t = math.tan(math.radians(args[0]))
        return (1.0, 0.0, t, 1.0, 0.0, 0.0) if name == "skewX" else (1.0, t, 0.0, 1.0, 0.0, 0.0)
    if name == "translate":
        return 1.0, 0.0, 0.0, 1.0, args[0], args[1]
    if name == "rotate":
        radians = math.radians(args[0])
        rotation = (math.cos(radians), math.sin(radians), -math.sin(radians), math.cos(radians), 0.0, 0.0)
        if len(args) == 1:
            return rotation
        cx, cy = args[1], args[2]
        return _fold((1, 0, 0, 1, cx, cy), (rotation, (1, 0, 0, 1, -cx, -cy)))
    if name == "matrix":
        return args
    raise ValueError(f"unknown transform op {name!r}")


class Chain:
    """A transform list, a tuple of ops, with its left-to-right product, composed once.

    A group's chain is shared by everything under it.
    """

    __slots__ = ("ops", "ctm")

    def __init__(self, ops: tuple[tuple, ...], ctm: tuple[float, ...]):
        self.ops = ops
        self.ctm = ctm

    def extend(self, ops: Sequence[tuple]) -> "Chain":
        """This chain followed by ops.

        The product is a left fold, so extending it gives the same floats
        as composing the whole list from the identity.
        """
        if not ops:
            return self
        return Chain(self.ops + tuple(ops), _fold(self.ctm, starmap(_entries, ops)))


EMPTY_CHAIN = Chain((), IDENTITY)


def compose_ctm(ops: Sequence[tuple]) -> tuple[float, ...]:
    """Left-to-right product of a transform list; empty list is identity.

    Mapping composes through Chain.extend; this stays only because
    perfbench/spans.py rebinds it by name in mappers.
    """
    return EMPTY_CHAIN.extend(ops).ctm


def recalc_points(m: Sequence[float], coords: list[float]) -> list[float]:
    """Apply the matrix to every point of a flat x0, y0, x1, y1, ... list, preserving order."""
    a, b, c, d, e, f = m
    it = iter(coords)
    return [value for x, y in zip(it, it) for value in (a * x + c * y + e, b * x + d * y + f)]


# --- offset rules -----------------------------------------------------------
# VML's skew element and the matrix filter transform a shape in place; the
# coordinate shift a transform implies has to be applied by hand.  These
# rules were established experimentally against IE rendering and are not
# derivable from the matrices alone.  A translation (any identity linear
# part) needs no correction: its shift goes into the output coordinates.
# Each rule takes the matrix, the untransformed box (x, y, width, height) and
# the root size (width, height), and returns the correction as (dx, dy).


def offset_for_linear_shape(m: Sequence[float], box: Sequence[float], root: Sequence[float]) -> tuple[float, float]:
    """Position correction for a skewed/filtered box, from the linear part.

    Specializes to (sx*w, sy*h) for scale, (tan*y + w, h) for skewX,
    (w, tan*x + h) for skewY and (w, h) for the identity.  Rotation does not
    follow this rule and is handled separately.
    """
    x, y, width, height = box
    return m[0] * width + m[2] * y, m[1] * x + m[3] * height


def offset_for_linear_path(m: Sequence[float], box: Sequence[float], root: Sequence[float]) -> tuple[float, float]:
    """Position correction for a skewed path, from the root element size."""
    width, height = root
    return m[0] * width + m[2] * height - width, m[1] * width + m[3] * height - height


def _rotate_offset(angle_deg: float, box: Sequence[float], cx: float = 0.0, cy: float = 0.0) -> tuple[float, float]:
    radians = math.radians(angle_deg)
    cos_a, sin_a = math.cos(radians), math.sin(radians)
    x, y, width, height = box
    return (
        cos_a * (x - cx) - sin_a * (y - cy) - width + cx,
        sin_a * (x - cx) + cos_a * (y - cy) - height + cy,
    )


# --- VML carriers ------------------------------------------------------------
# Each takes the linear part of a matrix, its first four entries.


def _shape_skew(m: Sequence[float]) -> tuple[float, ...]:
    """The v:skew linear entries for shapes, in writing order: the sign-negated linear part."""
    return -m[0], -m[1], -m[2], -m[3]


def _path_skew(m: Sequence[float]) -> tuple[float, ...]:
    """The v:skew linear entries for paths, in writing order: the plain linear part, row-major."""
    return m[0], m[2], m[1], m[3]


def _matrix_filter_text(m: Sequence[float], precision: int) -> str:
    m11, m12, m21, m22 = format_numbers((m[0], m[2], m[1], m[3]), precision)
    return (
        "progid:DXImageTransform.Microsoft.Matrix("
        f"M11={m11}, M12={m12}, M21={m21}, M22={m22}, SizingMethod='auto expand')"
    )


# --- strategy table ---------------------------------------------------------

SKEW_SHAPE = "skew-shape"
SKEW_PATH = "skew-path"
MATRIX_FILTER = "matrix-filter"

STRATEGY_BY_TAG = {
    "rect": SKEW_SHAPE,
    "circle": SKEW_SHAPE,
    "ellipse": SKEW_SHAPE,
    "path": SKEW_PATH,
    "text": MATRIX_FILTER,
    "textPath": MATRIX_FILTER,
    "foreignObject": MATRIX_FILTER,
}

# How a lone rotate is simulated when it does not go through the linear
# offset rule: in place, or after moving the coordinates to its centre.
ROTATE_IN_PLACE = "in-place"
ROTATE_ABOUT_CENTRE = "about-centre"


# One row per strategy: what it can simulate, with which offset rule and carrier.
#   multi_ops  transform kinds a list of two or more may mix
#   offset     the linear offset rule, from the matrix and the element box
#              or the root size
#   rotation   how a lone rotate is simulated; None sends it through the
#              linear rule and drops the translation of its centre
#   carrier    the v:skew matrix's four linear entries in writing order,
#              from the linear part; the skew's offset slot takes the
#              correction.  None for the matrix filter, which has no offset
#              slot, so its correction moves the position
# The manual offset corrections are only worked out for these combinations.
STRATEGIES = {
    SKEW_SHAPE: (
        frozenset({"scale", "translate", "skewX", "skewY"}),
        offset_for_linear_shape,
        ROTATE_ABOUT_CENTRE,
        _shape_skew,
    ),
    SKEW_PATH: (
        frozenset({"scale", "translate"}),
        offset_for_linear_path,
        None,
        _path_skew,
    ),
    MATRIX_FILTER: (
        frozenset({"scale", "skewX", "skewY"}),
        offset_for_linear_shape,
        ROTATE_IN_PLACE,
        None,
    ),
}


class Placement:
    """What a mapper writes for a transformed element.

    origin  the box origin after the transform, for left and top; for a
            path, whose box sits at the origin, the shift added to every
            coordinate.  None keeps the position as written
    skew    the v:skew attributes, or None
    filter  the Matrix filter text, or None
    offset  the raw position correction, (dx, dy)
    """

    __slots__ = ("origin", "skew", "filter", "offset")

    def __init__(self, origin: tuple[float, float] | None, skew: dict[str, str] | None,
                 filter: str | None, offset: tuple[float, float]):
        self.origin = origin
        self.skew = skew
        self.filter = filter
        self.offset = offset


_NO_OFFSET = (0.0, 0.0)

# The one overflow rule: an element whose transformed values would not be
# finite is drawn untransformed, with this BAD_TRANSFORM message.
OVERFLOW_IGNORED = "transform overflows to a non-finite value; ignored"


def place(
    strategy: str,
    chain: Chain,
    box: Sequence[float],
    root: Sequence[float],
    precision: int,
    diagnostics: Diagnostics,
    location: LocationLike = "",
) -> Placement | None:
    """Simulate a transform chain with the strategy's offset rule and carrier.

    Returns None, after reporting UNSUPPORTED_TRANSFORM when the strategy
    has no rule for the list or BAD_TRANSFORM when a value to be written
    overflows; the element then stays untransformed.  box is the element's
    (x, y, width, height) and root the root size (width, height).
    """
    multi_ops, offset_rule, rotation, carrier = STRATEGIES[strategy]
    ops = chain.ops
    if len(ops) > 1:
        offending = {name for name, _ in ops} - multi_ops
        if offending:
            message = f"multi-transform with {', '.join(sorted(offending))} is not supported for {strategy}"
            diagnostics.error("UNSUPPORTED_TRANSFORM", message, location)
            return None
    elif ops and ops[0][0] == "matrix":
        diagnostics.error("UNSUPPORTED_TRANSFORM", f"matrix() has no offset rule for {strategy}", location)
        return None
    lone_rotate = len(ops) == 1 and ops[0][0] == "rotate"
    if lone_rotate and rotation is not None:
        angle, *centre = ops[0][1]
        linear: Sequence[float] | None = _entries("rotate", (angle,))
        # The re-shift from the centre is folded into the offset.
        shift = (-centre[0], -centre[1]) if centre and rotation == ROTATE_ABOUT_CENTRE else None
        offset = _rotate_offset(angle, box, *centre)
    else:
        ctm = chain.ctm
        a, b, c, d, e, f = ctm
        shift = None if lone_rotate or (e == 0.0 and f == 0.0) else (e, f)
        linear = None if (a, b, c, d) == (1.0, 0.0, 0.0, 1.0) else ctm
        offset = _NO_OFFSET if linear is None else offset_rule(ctm, box, root)
    dx, dy = shift or (0.0, 0.0)
    odx, ody = offset
    if carrier is None and (linear is not None or shift is not None):
        # The matrix filter has no offset slot; its correction moves the position.
        origin = (box[0] + dx - odx, box[1] + dy - ody)
    else:
        origin = None if shift is None else (box[0] + dx, box[1] + dy)
    if not all(map(math.isfinite, (*(origin or ()), *offset, *(linear or IDENTITY)[:4]))):
        diagnostics.error("BAD_TRANSFORM", OVERFLOW_IGNORED, location)
        return None
    skew = filter_text = None
    if linear is not None and carrier is None:
        filter_text = _matrix_filter_text(linear, precision)
    elif linear is not None:
        # One format pass for the matrix and the offset.  The correction
        # moves the shape up and left by the offset; the skew offset slot
        # applies additively, hence the sign flip.  The last two matrix
        # slots are perspective terms, not pixel offsets: they stay 0, and
        # translation is carried by the output coordinates instead.
        m1, m2, m3, m4, ox, oy = format_numbers((*carrier(linear), -odx, -ody), precision)
        skew = {"on": "t", "matrix": f"{m1}, {m2}, {m3}, {m4}, 0, 0", "offset": f"{ox}px,{oy}px"}
    return Placement(origin, skew, filter_text, offset)

"""Path "d" attribute parsing, normalization and VML path emission.

Supported commands and their VML counterparts:

    M,m -> m      L,l -> l      H,h -> l      V,v -> l
    C,c -> c      Z,z -> x (plus the final e terminator)

S/s, Q/q and T/t have no VML counterpart and are rejected; A/a is rejected
because elliptic arcs do not translate to the VML "at" command directly.
All VML commands are emitted in lower case over absolute coordinates.

Conversion is three steps over plain tuples, which the path mapper chains
as `emit_vml_path(to_absolute(parse_path_data(d), dx, dy), precision)`:

- `parse_path_data` splits the string on command letters and reads the
  numbers of every piece: in C, with `str.split()` and `float`, when the
  string holds only letters, number characters and separators and no
  compact "1.2.3"; otherwise, and when `float` rejects a token, by the
  grammar's regex and a length count, which decide validity
  (`_read_pieces`).  The result is a list of segments
  `(kind, relative, values)`, one per command letter, with implicit
  repetitions kept in `values`.
- `to_absolute` moves the cursor over plain floats, relative to absolute
  first and then by the shift (dx, dy), and yields `(vml_letter, coords)`
  per coordinate group.
- `emit_vml_path` formats every coordinate of the path with one
  `format_numbers` call and fills one template with the results.

An empty or separator-only `d` parses to no segments without a diagnostic;
the path mapper reports it as DEGENERATE_SHAPE.  A coordinate that is not
finite, or that overflows while relative values accumulate, shows as "inf"
or "nan" in the emitted text, so one substring test per path replaces a
check per value: `is_finite_path` tells the caller to reject the path
(BAD_PATH) or, for transformed points, to drop the transform (BAD_TRANSFORM).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Sequence

from .diagnostics import Diagnostics, LocationLike
from .numeric import LIST_CHARS, NUMBER_RE, SEPARATORS, format_numbers

# Not called here; bound because perfbench/spans.py rebinds format_number by
# name in this module during its traced run.
from .numeric import format_number  # noqa: F401

# Coordinate count per canonical (upper-case) command letter.
ARITY = {"M": 2, "L": 2, "H": 1, "V": 1, "C": 6, "Z": 0}

_UNSUPPORTED = {"S", "Q", "T"}
_ARC = "A"

_LETTER_RE = re.compile(r"([A-Za-z])")
_OUTSIDE_PATH_RE = re.compile(f"[^A-Za-z{LIST_CHARS}]")
# A "." right after a fraction: the compact "1.2.3", valid, which float rejects.
_COMPACT_RE = re.compile(r"\.[0-9]*\.")

# A segment: canonical kind, relative flag, and its coordinates, a whole
# number of groups.  After a moveto, every group past the first is a lineto.
Segment = tuple[str, bool, Sequence[float]]

_CLOSE: Segment = ("Z", False, ())


def parse_path_data(
    d: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> list[Segment]:
    """Parse a path definition into segments.

    Implicit repetition is honored: extra coordinate groups after a command
    repeat it, except after a moveto where they become linetos.  The first
    problem records one error diagnostic and stops the scan; the segments
    read before it are returned, so callers check the diagnostics.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    read = _read_pieces(d)
    if read is None:
        diagnostics.error("BAD_PATH", f"unparseable path data {d!r}", location)
        return []
    letters, groups = read
    if groups[0]:
        diagnostics.error("BAD_PATH", "coordinates before any command", location)
        return []

    segments: list[Segment] = []
    for letter, numbers in zip(letters, groups[1:]):
        kind = letter.upper()
        arity = ARITY.get(kind)
        if arity is None:
            if kind in _UNSUPPORTED:
                diagnostics.error(
                    "UNSUPPORTED_COMMAND", f"path command {letter!r} has no VML counterpart", location
                )
            elif kind == _ARC:
                diagnostics.error(
                    "FUTURE_WORK_ARC", f"arc command {letter!r} is not implemented", location
                )
            else:
                diagnostics.error("BAD_PATH", f"unknown path command {letter!r}", location)
            return segments
        if not arity:
            segments.append(_CLOSE)
            if numbers:
                diagnostics.error("BAD_PATH", "coordinates before any command", location)
                return segments
            continue
        whole = len(numbers) - len(numbers) % arity
        if whole:
            segments.append((kind, letter.islower(), numbers[:whole]))
        if not whole or whole != len(numbers):
            # A moveto's incomplete second group is an incomplete lineto.
            shown = "L" if kind == "M" and whole else kind
            diagnostics.error("BAD_PATH", f"command {shown} expects {arity} coordinates", location)
            return segments
    return segments


def _read_pieces(d: str) -> Optional[tuple[list[str], list[list[float]]]]:
    """The command letters of d and the numbers before, between and after them.

    None when d is outside the grammar.  A d made only of ASCII letters and
    `LIST_CHARS`, with no compact "1.2.3", is read in C: a space before every
    sign, a split on the letters, then `str.split()` and `float` per piece.
    Any other d, or a token `float` rejects, goes to the grammar's regex and
    the length count, which decide.  A compact d goes there first: minified
    paths hold many, and a split that fails late costs more than the regex.
    """
    if not _COMPACT_RE.search(d) and not _OUTSIDE_PATH_RE.search(d):
        pieces = _LETTER_RE.split(d.replace(",", " ").replace("-", " -").replace("+", " +"))
        try:
            return pieces[1::2], [list(map(float, piece.split())) for piece in pieces[::2]]
        except ValueError:
            pass
    pieces = _LETTER_RE.split(d)
    groups = list(map(NUMBER_RE.findall, pieces[::2]))
    # Tokens never hold a separator, so every character outside them is one
    # exactly when the letters, the numbers and the separators add up to d.
    tokens = len(pieces) // 2 + len("".join(map("".join, groups)))
    if tokens + sum(map(d.count, SEPARATORS)) != len(d):
        return None
    return pieces[1::2], [list(map(float, numbers)) for numbers in groups]


def to_absolute(
    segments: Iterable[Segment], dx: float = 0.0, dy: float = 0.0
) -> Iterator[tuple[str, tuple[float, ...]]]:
    """Yield `(vml_letter, absolute coords)` per coordinate group, then shifted.

    H/V become linetos.  A leading relative moveto behaves as absolute
    because the cursor starts at the origin.  Close-path yields ("x", ())
    and returns the cursor to the subpath start.  The cursor itself never
    includes the (dx, dy) shift.
    """
    cx = cy = sx = sy = 0.0
    for kind, relative, values in segments:
        if kind == "L" or kind == "M":
            it = iter(values)
            letter = "m" if kind == "M" else "l"
            for x, y in zip(it, it):
                if relative:
                    x += cx
                    y += cy
                yield letter, (x + dx, y + dy)
                cx, cy = x, y
                if letter == "m":
                    sx, sy = x, y
                    letter = "l"
        elif kind == "C":
            it = iter(values)
            for x1, y1, x2, y2, x, y in zip(it, it, it, it, it, it):
                if relative:
                    x1 += cx
                    y1 += cy
                    x2 += cx
                    y2 += cy
                    x += cx
                    y += cy
                yield "c", (x1 + dx, y1 + dy, x2 + dx, y2 + dy, x + dx, y + dy)
                cx, cy = x, y
        elif kind == "H":
            for x in values:
                cx = cx + x if relative else x
                yield "l", (cx + dx, cy + dy)
        elif kind == "V":
            for y in values:
                cy = cy + y if relative else y
                yield "l", (cx + dx, cy + dy)
        else:
            yield "x", ()
            cx, cy = sx, sy


# One template per VML group; every coordinate fills one "%s".
_TEMPLATES = {"m": "m %s,%s", "l": "l %s,%s", "c": "c %s,%s,%s,%s,%s,%s", "x": "x"}


def emit_vml_path(parts: Iterable[tuple[str, tuple[float, ...]]], precision: int = 6) -> str:
    """Serialize `(vml_letter, coords)` pairs; one trailing "e" terminates.

    The groups become one template and all their coordinates one list, so
    the whole path takes one `format_numbers` call and one `%` fill.
    """
    templates = []
    coords: list[float] = []
    for letter, values in parts:
        templates.append(_TEMPLATES[letter])
        coords.extend(values)
    templates.append("e")
    return " ".join(templates) % tuple(format_numbers(coords, precision))


def is_finite_path(text: str) -> bool:
    """False when emitted path text holds an overflowed or non-numeric value."""
    return "inf" not in text and "nan" not in text

"""Path "d" attribute parsing, normalization and VML path emission.

Supported commands and their VML counterparts:

    M,m -> m      L,l -> l      H,h -> l      V,v -> l
    C,c -> c      Z,z -> x (plus the final e terminator)

S/s, Q/q and T/t have no VML counterpart and are rejected; A/a is rejected
because elliptic arcs do not translate to the VML "at" command directly.
All VML commands are emitted in lower case over absolute coordinates.

Conversion is one kernel with three steps, and no per-command objects:

- `scan_path` checks the gaps between tokens once, in linear time, splits
  the string on command letters and reads each command's numbers with one
  regex pass.  The result is a list of segments `(kind, relative, values)`,
  one per command letter, with implicit repetitions kept in `values`.
- `walk_segments` moves the cursor over plain floats, relative to absolute
  first and then by the group shift, and yields `(vml_letter, coords)`.
- `emit_segments` formats every coordinate of the path with one
  `format_numbers` call and fills one template with the results.

`vml_path` chains the last two.  The `PathCommand` API (`parse_path_data`,
`to_absolute`, `shift_commands`, `emit_vml_path`) is a thin adapter over the
same three steps.

An empty or separator-only `d` scans to no segments without a diagnostic;
the path mapper reports it as DEGENERATE_SHAPE.  A coordinate that is not
finite, or that overflows while relative values accumulate, shows as "inf"
or "nan" in the emitted text, so one substring test per path replaces a
check per value: `is_finite_path` tells the caller to reject the path
(BAD_PATH) or, for transformed points, to drop the transform (BAD_TRANSFORM).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .diagnostics import Diagnostics, LocationLike
from .numeric import NUMBER_PATTERN, NUMBER_RE, format_numbers

# Not called here; bound because perfbench/spans.py rebinds format_number by
# name in this module during its traced run.
from .numeric import format_number  # noqa: F401

# Coordinate count per canonical (upper-case) command letter.
ARITY = {"M": 2, "L": 2, "H": 1, "V": 1, "C": 6, "Z": 0}

_UNSUPPORTED = {"S", "Q", "T"}
_ARC = "A"

_SEPARATORS = " \t\r\n,"
_TOKEN_RE = re.compile(rf"([A-Za-z])|({NUMBER_PATTERN})")
_LETTER_RE = re.compile(r"([A-Za-z])")

# A segment: canonical kind, relative flag, and its coordinates, a whole
# number of groups.  After a moveto, every group past the first is a lineto.
Segment = tuple[str, bool, Sequence[float]]

_CLOSE: Segment = ("Z", False, ())


@dataclass(frozen=True)
class PathCommand:
    kind: str  # one of M, L, H, V, C, Z
    relative: bool
    coords: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ARITY:
            raise ValueError(f"unknown path command kind {self.kind!r}")
        if len(self.coords) != ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} needs {ARITY[self.kind]} coordinates, got {len(self.coords)}"
            )
        if self.kind == "Z" and self.relative:
            raise ValueError("close-path is never relative")


def moveto(x, y, relative=False):
    return PathCommand("M", relative, (float(x), float(y)))


def lineto(x, y, relative=False):
    return PathCommand("L", relative, (float(x), float(y)))


def curveto(x1, y1, x2, y2, x, y, relative=False):
    return PathCommand("C", relative, (float(x1), float(y1), float(x2), float(y2), float(x), float(y)))


def closepath():
    return PathCommand("Z", False, ())


# --- the kernel ----------------------------------------------------------------


def scan_path(
    d: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> list[Segment]:
    """Scan a path definition into segments.

    Implicit repetition is honored: extra coordinate groups after a command
    repeat it, except after a moveto where they become linetos.  The first
    problem records one error diagnostic and stops the scan; the segments
    read before it are returned, so callers check the diagnostics.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    # Removing every token leaves only the gaps, which may hold separators.
    if _TOKEN_RE.sub("", d).strip(_SEPARATORS):
        diagnostics.error("BAD_PATH", f"unparseable path data {d!r}", location)
        return []
    pieces = _LETTER_RE.split(d)
    if NUMBER_RE.search(pieces[0]):
        diagnostics.error("BAD_PATH", "coordinates before any command", location)
        return []

    segments: list[Segment] = []
    for index in range(1, len(pieces), 2):
        letter = pieces[index]
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
        numbers = NUMBER_RE.findall(pieces[index + 1])
        if not arity:
            segments.append(_CLOSE)
            if numbers:
                diagnostics.error("BAD_PATH", "coordinates before any command", location)
                return segments
            continue
        whole = len(numbers) - len(numbers) % arity
        if whole:
            segments.append((kind, letter.islower(), list(map(float, numbers[:whole]))))
        if not whole or whole != len(numbers):
            # A moveto's incomplete second group is an incomplete lineto.
            shown = "L" if kind == "M" and whole else kind
            diagnostics.error("BAD_PATH", f"command {shown} expects {arity} coordinates", location)
            return segments
    return segments


def walk_segments(
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


def emit_segments(parts: Iterable[tuple[str, tuple[float, ...]]], precision: int = 6) -> str:
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


def vml_path(segments: Iterable[Segment], precision: int = 6, dx: float = 0.0, dy: float = 0.0) -> str:
    """Absolute VML path text for scanned segments, shifted by (dx, dy)."""
    return emit_segments(walk_segments(segments, dx, dy), precision)


def is_finite_path(text: str) -> bool:
    """False when emitted path text holds an overflowed or non-numeric value."""
    return "inf" not in text and "nan" not in text


# --- PathCommand adapters --------------------------------------------------------

_KIND_OF_LETTER = {"m": "M", "l": "L", "c": "C", "x": "Z"}
_LETTER_OF_KIND = {kind: letter for letter, kind in _KIND_OF_LETTER.items()}


def _commands(parts: Iterable[tuple[str, tuple[float, ...]]]) -> list[PathCommand]:
    return [PathCommand(_KIND_OF_LETTER[letter], False, coords) for letter, coords in parts]


def parse_path_data(
    d: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> list[PathCommand]:
    """Parse a path definition into commands, one per coordinate group.

    Diagnostics are those of `scan_path`; on error, the commands read before
    the problem are returned.
    """
    commands: list[PathCommand] = []
    for kind, relative, values in scan_path(d, diagnostics, location):
        if kind == "Z":
            commands.append(closepath())
            continue
        arity = ARITY[kind]
        for start in range(0, len(values), arity):
            commands.append(PathCommand(kind, relative, tuple(values[start : start + arity])))
            if kind == "M":
                kind = "L"
    return commands


def _segments(commands: list[PathCommand]) -> Iterator[Segment]:
    return ((command.kind, command.relative, command.coords) for command in commands)


def to_absolute(commands: list[PathCommand]) -> list[PathCommand]:
    """Rewrite commands to absolute form with H/V expanded to linetos.

    A leading relative moveto behaves as absolute because the cursor starts
    at the origin.  Close-path returns the cursor to the subpath start.
    """
    return _commands(walk_segments(_segments(commands)))


def _require_absolute(commands: list[PathCommand], caller: str) -> None:
    for command in commands:
        if command.relative:
            raise ValueError(f"{caller} requires absolute commands")
        if command.kind not in _LETTER_OF_KIND:
            raise ValueError(f"command {command.kind} must be normalized before {caller}")


def shift_commands(commands: list[PathCommand], dx: float, dy: float) -> list[PathCommand]:
    """Translate every coordinate pair of absolute commands by (dx, dy)."""
    _require_absolute(commands, "shift_commands")
    return _commands(walk_segments(_segments(commands), dx, dy))


def emit_vml_path(commands: list[PathCommand], precision: int = 6) -> str:
    """Serialize absolute commands as a VML path string.

    Every close-path becomes "x"; exactly one trailing "e" terminates the
    string.
    """
    _require_absolute(commands, "emit_vml_path")
    return emit_segments(
        ((_LETTER_OF_KIND[command.kind], command.coords) for command in commands), precision
    )

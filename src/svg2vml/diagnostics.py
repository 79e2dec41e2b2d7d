"""Warning and error reporting for the conversion pipeline.

Diagnostics are collected rather than raised, so a conversion skips a broken
subtree and keeps going, and every loss is listed.  In strict mode a warning
is recorded with error severity; that is all strict changes here, and
pipeline.convert_text then returns no output.

A location is a tree path such as "svg/g[0]/rect[3]@width".  Callers may
pass it as a Location chain, which is joined into that text only when a
diagnostic is recorded, so the conversion pays nothing for locations that
are never reported.
"""

from __future__ import annotations

from typing import NamedTuple, Union


class Location:
    """One step of a tree path, after the location of its parent.

    The root is a plain string ("svg"); each step adds "/name[index]" for a
    child or "@name" for an attribute.  str() joins the chain.
    """

    __slots__ = ("parent", "step")

    def __init__(self, parent: "LocationLike", step: str):
        self.parent = parent
        self.step = step

    def __str__(self) -> str:
        steps = []
        location: LocationLike = self
        while isinstance(location, Location):
            steps.append(location.step)
            location = location.parent
        steps.append(location)
        return "".join(reversed(steps))


LocationLike = Union[str, Location]


class Diagnostic(NamedTuple):
    severity: str  # "warning" | "error"
    code: str
    message: str
    location: str = ""

    def __str__(self) -> str:
        suffix = f" @{self.location}" if self.location else ""
        return f"{self.severity} {self.code}: {self.message}{suffix}"


class Diagnostics:
    """Ordered diagnostic collector shared across pipeline stages."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.items: list[Diagnostic] = []
        self._codes: set[str] = set()  # every code in items, for has_code

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def warning(self, code: str, message: str, location: LocationLike = "") -> None:
        self.items.append(Diagnostic("error" if self.strict else "warning", code, message, str(location)))
        self._codes.add(code)

    def error(self, code: str, message: str, location: LocationLike = "") -> None:
        self.items.append(Diagnostic("error", code, message, str(location)))
        self._codes.add(code)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.items)

    def codes(self) -> list[str]:
        return [d.code for d in self.items]

    def has_code(self, code: str) -> bool:
        """True if a diagnostic with this code was recorded; constant time."""
        return code in self._codes

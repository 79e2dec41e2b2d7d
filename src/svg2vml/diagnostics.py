"""Warning and error reporting for the conversion pipeline.

Diagnostics are collected rather than raised, so a conversion skips a broken
subtree and keeps going, and every loss is listed.  In strict mode a warning
is recorded with error severity; that is all strict changes here, and
pipeline.convert_text then returns no output.

A location is a tree path such as "svg/g[0]/rect[3]@width".  The layers
pass it as a Location chain, whose steps keep their name and index and are
joined into that text only when a diagnostic is recorded, so a conversion
pays nothing for the locations it never reports.
"""

from __future__ import annotations

from collections import namedtuple


class Location:
    """One step of a tree path, after the location of its parent.

    The root is a plain string ("svg").  A step with an index is a child,
    rendered "/name[index]"; one without is an attribute, rendered "@name".
    str() joins the chain.
    """

    __slots__ = ("parent", "name", "index")

    def __init__(self, parent: "LocationLike", name: str, index: int | None = None):
        self.parent = parent
        self.name = name
        self.index = index

    def __str__(self) -> str:
        steps = []
        location: LocationLike = self
        while isinstance(location, Location):
            steps.append(f"@{location.name}" if location.index is None else f"/{location.name}[{location.index}]")
            location = location.parent
        steps.append(location)
        return "".join(reversed(steps))


LocationLike = str | Location


Diagnostic = namedtuple("Diagnostic", "severity code message location", defaults=("",))
Diagnostic.__doc__ = """One reported problem; str() gives the line the CLI prints.

severity: str, "warning" or "error"
code: str, such as "BAD_PATH"
message: str
location: str, the tree path, or "" when the problem has no place
"""


def _diagnostic_line(diagnostic: Diagnostic) -> str:
    suffix = f" @{diagnostic.location}" if diagnostic.location else ""
    return f"{diagnostic.severity} {diagnostic.code}: {diagnostic.message}{suffix}"


Diagnostic.__str__ = _diagnostic_line


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

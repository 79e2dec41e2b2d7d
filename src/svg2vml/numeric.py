"""The one number grammar, and deterministic number formatting.

SVG 1.1's grammar, kept small: sign, ASCII digits, decimal point, no exponent,
so parsing and emission stay symmetric and output never holds "e" forms.  A
list splits on runs of space, tab, CR, LF and comma; every parser uses these.

`read_numbers` reads a list in C: a list made only of `LIST_CHARS` splits
with `str.split()` and converts with `float`.  On those characters the two
accept exactly the grammar's tokens, so a token `float` rejects is outside
the grammar; elsewhere `float` reads more (`_`, Unicode digits, exponents,
"inf", "nan") and `split()` splits on more (`\x0b`, `\x0c`, `\x1c`-`\x1f`,
NEL, Unicode spaces), so any other list is rejected.  `read_number` reads
one token the same way: a token made only of `NUMBER_CHARS` converts with
`float`, which on those characters accepts exactly the grammar's numbers.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

WSP = " \t\r\n"
SEPARATORS = WSP + ","

# Unambiguous on purpose: a digit run splits between the alternatives one way
# only, and list numbers need a separator between them, so matches are linear.
NUMBER_PATTERN = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
# The whole-list grammar: no reader runs it; it is the reference the tests
# compare read_numbers and the list readers against.
NUMBER_LIST_PATTERN = rf"[{SEPARATORS}]*(?:{NUMBER_PATTERN}(?:[{SEPARATORS}]+{NUMBER_PATTERN})*)?[{SEPARATORS}]*"

# Compiled once for every module: NUMBER_RE finds numbers anywhere, and its
# fullmatch accepts a whole token and nothing else.
NUMBER_RE = re.compile(NUMBER_PATTERN)
_SPLIT_RE = re.compile(f"[{SEPARATORS}]+")

# The characters of a number list, as a regex class body; path_data adds letters.
LIST_CHARS = rf"0-9.+\-{SEPARATORS}"
_OUTSIDE_LIST_RE = re.compile(f"[^{LIST_CHARS}]")
# The characters of one number, as a str.strip argument.
NUMBER_CHARS = "0123456789.+-"


def split_list(text: str) -> list[str]:
    """The tokens between runs of separators."""
    return [token for token in _SPLIT_RE.split(text) if token]


def read_numbers(text: str) -> Optional[list[float]]:
    """The numbers of a whole list, or None when a token is not a finite number."""
    if _OUTSIDE_LIST_RE.search(text):
        return None
    try:
        numbers = list(map(float, text.replace(",", " ").split()))
    except ValueError:
        return None
    return numbers if all(map(math.isfinite, numbers)) else None


def read_number(token: str) -> Optional[float]:
    """A whole token as a finite number, or None when it is outside the grammar or overflows."""
    if token.strip(NUMBER_CHARS):
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


# printf-style fixed-point specs for the precisions ConvertOptions allows.
_FIXED_SPECS = {precision: f"%.{precision}f" for precision in range(13)}


def format_number(value: float, precision: int = 6) -> str:
    """Format a number with fixed precision, trimming trailing zeros.

    Never produces exponent notation; "-0" collapses to "0".
    """
    spec = _FIXED_SPECS.get(precision)
    text = spec % value if spec is not None else f"{value:.{precision}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def format_numbers(values: Sequence[float], precision: int = 6) -> list[str]:
    """Format many numbers at once; exactly `[format_number(v, precision) for v in values]`.

    One `%` pass formats every value, with NUL as the separator no number
    text holds, and the trim runs per token, so the cost per value is a
    split and a C-level `rstrip`, not a Python call.
    """
    if not values:
        return []
    spec = _FIXED_SPECS.get(precision) or f"%.{precision}f"
    texts = ("\x00".join([spec] * len(values)) % tuple(values)).split("\x00")
    if precision > 0:
        texts = [text.rstrip("0").rstrip(".") for text in texts]
    if "-0" in texts:
        texts = ["0" if text == "-0" else text for text in texts]
    return texts

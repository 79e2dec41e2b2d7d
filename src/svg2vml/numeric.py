"""Shared numeric grammar and deterministic number formatting.

The accepted number grammar is deliberately small: optional sign, digits,
optional decimal point.  Exponent notation is rejected everywhere so that
parsing and emission stay symmetric and output never contains "e" forms.
"""

from __future__ import annotations

import math
import re

# Unambiguous on purpose: a run of digits splits between the alternatives in
# one way only, so anchored matches never backtrack over long digit runs.
NUMBER_PATTERN = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)"

# Compiled once for every module: NUMBER_RE finds numbers anywhere;
# NUMBER_TOKEN_RE.match accepts a whole token and nothing else.
NUMBER_RE = re.compile(NUMBER_PATTERN)
NUMBER_TOKEN_RE = re.compile(NUMBER_PATTERN + r"\Z")


def parse_number(token: str) -> float:
    """Parse one numeric token; raises ValueError on anything else.

    A token with too many digits for a float overflows to infinity and is
    rejected as well.
    """
    token = token.strip()
    if not NUMBER_TOKEN_RE.match(token):
        raise ValueError(f"invalid number: {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number out of range: {token!r}")
    return value


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

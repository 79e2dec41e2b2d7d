"""Checks one conversion output against the counts the generator expects.

An output fails when it does not re-parse as XML, when the count of any
output tag below <body> differs from the generator's, or when a non-number
(inf, nan) appears where the converter formatted a number.  Byte equality of
repeated conversions is checked by the runner, which holds both outputs.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter
from typing import Optional

# Namespace URI -> the prefix the generator uses for tags in that namespace.
_PREFIX = {
    "urn:schemas-microsoft-com:vml": "v:",
    "http://www.w3.org/2000/svg": "svg:",
    "http://www.w3.org/1999/xhtml": "",
}

_NON_NUMBER_RE = re.compile(r"(?<![A-Za-z])[-+]?(?:inf|nan)(?![A-Za-z])", re.IGNORECASE)


def _tag_key(tag: str) -> str:
    if tag.startswith("{"):
        uri, local = tag[1:].split("}", 1)
        return _PREFIX.get(uri, "{" + uri + "}") + local
    return tag


def body_tag_counts(root: ET.Element) -> dict[str, int]:
    body = next((el for el in root.iter() if _tag_key(el.tag) == "body"), None)
    if body is None:
        return {}
    counts = Counter(_tag_key(el.tag) for el in body.iter())
    counts["body"] -= 1
    return {tag: count for tag, count in counts.items() if count}


def check_output(output: str, expected: dict[str, int]) -> Optional[str]:
    """None when the output passes, else the reason it fails."""
    found = _NON_NUMBER_RE.search(output)
    if found:
        return f"non-number {found.group()!r} in output"
    try:
        root = ET.fromstring(output)
    except ET.ParseError as error:
        return f"output does not re-parse: {error}"
    counts = body_tag_counts(root)
    if counts != expected:
        diff = {tag: (counts.get(tag, 0), expected.get(tag, 0)) for tag in set(counts) | set(expected) if counts.get(tag, 0) != expected.get(tag, 0)}
        return f"tag counts differ (found, expected): {dict(sorted(diff.items()))}"
    return None

"""Presentation attribute mapping: the VML that stroke, fill and opacity become.

Stroke features become the attributes of a v:stroke child, a fill those of
a v:fill child, and opacity an alpha filter; the mappers only attach them.
Colors pass through untranslated, valid on both sides; a "none" stroke or
fill is a flag on the shape, which the mappers set.
"""

from __future__ import annotations

from typing import Optional

from .diagnostics import Diagnostics, Location, LocationLike
from .numeric import WSP, format_number, parse_number
from .svg_dom import SvgDocument, SvgNode, parse_length

# SVG stroke attribute -> v:stroke attribute.
STROKE_TABLE = {
    "stroke": "color",
    "stroke-width": "weight",
    "stroke-linecap": "endcap",
    "stroke-linejoin": "joinstyle",
    "stroke-miterlimit": "miterlimit",
    "stroke-opacity": "opacity",
}

# stroke-linecap values that VML spells otherwise; the rest are the same on both sides.
ENDCAP_TABLE = {"butt": "flat"}


def map_stroke_attribute(
    name: str,
    value: str,
    precision: int = 6,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> Optional[tuple[str, str]]:
    """Translate one stroke attribute of the element at location to its v:stroke counterpart.

    stroke-width is a length, and stroke-opacity a number clamped to [0, 1]
    as opacity is; a value that does not parse is reported and has no
    counterpart (None).
    """
    target = STROKE_TABLE[name]
    if name == "stroke-width":
        length = parse_length(value)
        if length is None:  # parsed again only to record the diagnostic at the attribute
            parse_length(value, diagnostics, Location(location, "@stroke-width"))
            return None
        return target, format_number(length, precision)
    if name == "stroke-opacity":
        opacity = _unit_interval(name, value, diagnostics, location)
        return None if opacity is None else (target, format_number(opacity, precision))
    if name == "stroke-linecap":
        return target, ENDCAP_TABLE.get(value, value)
    return target, value


def _unit_interval(
    name: str, raw: str, diagnostics: Optional[Diagnostics], location: LocationLike
) -> Optional[float]:
    """raw as a number clamped to [0, 1]; None if it does not parse.  Both faults are BAD_ATTRIBUTE."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    try:
        value = parse_number(raw)
    except ValueError:
        diagnostics.warning("BAD_ATTRIBUTE", f"unparseable {name} {raw!r}", location)
        return None
    if value < 0.0 or value > 1.0:
        diagnostics.warning("BAD_ATTRIBUTE", f"{name} {format_number(value)} outside [0, 1], clamped", location)
        value = min(1.0, max(0.0, value))
    return value


def alpha_filter(
    raw: str,
    precision: int = 6,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> Optional[str]:
    """The alpha filter for an opacity, scaled from [0, 1] to [0, 100]; None if it does not parse."""
    value = _unit_interval("opacity", raw, diagnostics, location)
    if value is None:
        return None
    return f"progid:DXImageTransform.Microsoft.Alpha(opacity={format_number(100.0 * value, precision)})"


def _stop_offset(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    token = value.strip(WSP)
    scale = 1.0
    if token.endswith("%"):
        token = token[:-1].strip(WSP)
        scale = 0.01
    try:
        return parse_number(token) * scale
    except ValueError:
        return None


def _gradient_coordinate(node: SvgNode, name: str, default: float) -> Optional[float]:
    raw = node.attr(name)
    if raw is None:
        return default
    return _stop_offset(raw)


def resolve_gradient(
    node: SvgNode,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> Optional[dict[str, str]]:
    """The v:fill attributes of a two-stop horizontal or vertical gradient.

    Only gradients of exactly two stops at 0% and 100% along a horizontal or
    vertical axis are expressible; everything else records
    UNSUPPORTED_GRADIENT and returns None.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()

    def unsupported(reason: str) -> None:
        diagnostics.error("UNSUPPORTED_GRADIENT", reason, location)

    stops = [child for child in node.children if child.tag == "stop"]
    if len(stops) != 2:
        unsupported(f"gradient needs exactly 2 stops, got {len(stops)}")
        return None

    offsets = [_stop_offset(stop.attr("offset")) for stop in stops]
    if offsets[0] != 0.0 or offsets[1] != 1.0:
        unsupported("gradient stops must sit at 0% and 100%")
        return None

    x1 = _gradient_coordinate(node, "x1", 0.0)
    y1 = _gradient_coordinate(node, "y1", 0.0)
    x2 = _gradient_coordinate(node, "x2", 1.0)
    y2 = _gradient_coordinate(node, "y2", 0.0)
    if None in (x1, y1, x2, y2):
        unsupported("unparseable gradient axis coordinates")
        return None
    # Gradient axis angle convention borrowed from the common SVG shims:
    # 270 runs left-to-right, 180 top-to-bottom.
    if y1 == y2 and x1 != x2:
        angle = "270"
    elif x1 == x2 and y1 != y2:
        angle = "180"
    else:
        unsupported("only horizontal or vertical gradient axes are supported")
        return None

    colors = [stop.attr("stop-color") for stop in stops]
    if None in colors:
        unsupported("gradient stop without stop-color")
        return None
    return {"type": "gradient", "color": colors[0], "color2": colors[1], "angle": angle}


def resolve_fill_reference(
    value: str,
    document: SvgDocument,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> Optional[dict[str, str]]:
    """Resolve a fill of the form url(#id) to its gradient's v:fill attributes."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    inner = value.strip()[4:-1].strip().strip("'\"")
    if not inner.startswith("#"):
        diagnostics.error("DANGLING_REF", f"unresolvable fill reference {value!r}", location)
        return None
    target = document.id_index.get(inner[1:])
    if target is None:
        diagnostics.error("DANGLING_REF", f"fill references unknown id {inner!r}", location)
        return None
    if target.tag != "linearGradient":
        diagnostics.error(
            "UNSUPPORTED_GRADIENT", f"fill reference {inner!r} is not a linear gradient", location
        )
        return None
    return resolve_gradient(target, diagnostics, location)

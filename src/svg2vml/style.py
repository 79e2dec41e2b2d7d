"""Presentation attribute mapping: the VML that stroke, fill and opacity become.

Stroke features become the attributes of a v:stroke child, a fill those of
a v:fill child, and opacity an alpha filter; a "none" stroke or fill is a
flag on the shape.  Colors pass through untranslated, valid on both sides.
Inheritance is one fold, `Paint.extend`, applied by each g, a and drawn
element, so every value is parsed and reported once, where it is written.
A gradient fill is resolved once per conversion: the conversion keeps each
one that resolved without a report, keyed by its raw fill text, and a fill
that reported anything is resolved, and reported, again where it recurs.
"""

from __future__ import annotations

from .diagnostics import Diagnostics, Location, LocationLike
from .numeric import WSP, format_number, read_number
from .svg_dom import SvgDocument, SvgNode, parse_length

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: mappers imports this module
    from .mappers import Conversion

# SVG stroke attribute -> v:stroke attribute.
STROKE_TABLE = {
    "stroke": "color",
    "stroke-width": "weight",
    "stroke-linecap": "endcap",
    "stroke-linejoin": "joinstyle",
    "stroke-miterlimit": "miterlimit",
    "stroke-opacity": "opacity",
}

# The keywords stroke-linecap and stroke-linejoin take, each with its VML spelling.
STROKE_KEYWORDS = {
    "stroke-linecap": {"butt": "flat", "round": "round", "square": "square"},
    "stroke-linejoin": {"miter": "miter", "round": "round", "bevel": "bevel"},
}

# The paint properties a drawn shape reads and a g or an a hands down.
INHERITED = ("fill", *STROKE_TABLE, "opacity")

# What a "none" fill or stroke writes: a flag on the shape, not a v:fill or v:stroke child.
NONE_FLAGS = {"fill": ("filled", "f"), "stroke": ("stroked", "f")}


def map_stroke_attribute(name: str, value: str, precision: int, diagnostics: Diagnostics,
                         location: LocationLike) -> tuple[str, str] | None:
    """Translate one stroke attribute of the element at location to its v:stroke counterpart.

    stroke-width is a length of at least 0, stroke-opacity a number clamped
    to [0, 1] as opacity is, stroke-miterlimit a number of at least 1, and
    stroke-linecap and stroke-linejoin one of their STROKE_KEYWORDS.  Any
    other value is reported and has no counterpart (None).
    """
    target = STROKE_TABLE[name]
    if name == "stroke":
        return target, value
    if name == "stroke-opacity":
        opacity = _unit_interval(name, value, diagnostics, location)
        return None if opacity is None else (target, format_number(opacity, precision))
    keywords = STROKE_KEYWORDS.get(name)
    if name == "stroke-width":
        length = read_number(value)
        if length is None:
            length = parse_length(value, diagnostics, Location(location, "stroke-width"))
        if length is None:
            return None
        if length >= 0.0:
            return target, format_number(length, precision)
        fault = "is negative"
    elif keywords is not None:
        if value in keywords:
            return target, keywords[value]
        fault = f"is not one of {', '.join(keywords)}"
    else:
        limit = read_number(value.strip(WSP))
        if limit is not None and limit >= 1.0:
            return target, format_number(limit, precision)
        fault = "is not a number of at least 1"
    diagnostics.warning("BAD_ATTRIBUTE", f"{name} {value!r} {fault}", location)
    return None


def _unit_interval(name: str, raw: str, diagnostics: Diagnostics, location: LocationLike) -> float | None:
    """raw as a number clamped to [0, 1]; None if it does not parse.  Both faults are BAD_ATTRIBUTE."""
    value = read_number(raw.strip(WSP))
    if value is None:
        diagnostics.warning("BAD_ATTRIBUTE", f"unparseable {name} {raw!r}", location)
        return None
    if value < 0.0 or value > 1.0:
        diagnostics.warning("BAD_ATTRIBUTE", f"{name} {format_number(value)} outside [0, 1], clamped", location)
        value = min(1.0, max(0.0, value))
    return value


def alpha_filter(opacity: float, precision: int = 6) -> str:
    """The alpha filter for an opacity, scaled from [0, 1] to [0, 100]."""
    return f"progid:DXImageTransform.Microsoft.Alpha(opacity={format_number(100.0 * opacity, precision)})"


class Paint:
    """The paint an element draws with: its own values over those its groups hand down.

    values maps each fill and stroke property, in writing order, to its VML:
    a fill to its v:fill attributes as (name, value) pairs, a stroke property
    to its (v:stroke attribute, value) pair, "none" to its NONE_FLAGS entry,
    and a value that does not parse to None, which writes nothing.  Every
    value is a tuple or None, so a paint's items hash.  opacity is the
    product down the group chain, None when no element sets one.
    """

    __slots__ = ("values", "opacity")

    def __init__(self, values: dict, opacity: float | None):
        self.values = values
        self.opacity = opacity

    def extend(self, node: SvgNode, conversion: Conversion, location: LocationLike,
               names: tuple[str, ...] = INHERITED) -> "Paint":
        """This paint extended by node's own properties among names, each parsed and reported here.

        names is INHERITED or an ordered part of it.  Own values come first, in
        document order, then inherited ones; fill-opacity is reported before opacity.
        Values are written at conversion's precision and reported to its
        collector; a fill reference resolves in its document, through its fills.
        """
        diagnostics = conversion.diagnostics
        values = {}
        own_opacity = None
        for name, raw in node.attributes.items():
            if name not in names:
                continue
            if name == "opacity":
                own_opacity = raw
            elif raw == "none" and name in NONE_FLAGS:
                values[name] = NONE_FLAGS[name]
            elif name == "fill":
                if raw.strip().startswith("url("):
                    fill = conversion.fills.get(raw)
                    if fill is None:
                        resolved = resolve_fill_reference(raw, conversion.document, diagnostics, location)
                        if resolved is not None:  # it reported nothing, so it is exact wherever raw recurs
                            fill = conversion.fills[raw] = tuple(resolved.items())
                    values[name] = fill
                else:
                    values[name] = (("color", raw),)
            else:
                values[name] = map_stroke_attribute(name, raw, conversion.precision, diagnostics, location)
        if "fill-opacity" in node.attributes:
            diagnostics.warning("UNSUPPORTED_ATTRIBUTE", "fill-opacity has no VML mapping and is ignored", location)
        opacity = self.opacity
        if own_opacity is not None:
            own = _unit_interval("opacity", own_opacity, diagnostics, location)
            if own is not None:
                opacity = own if opacity is None else opacity * own
        inherited = self.values
        if inherited:
            for name in names:
                if name in inherited and name not in values:
                    values[name] = inherited[name]
        return Paint(values, opacity)


NO_PAINT = Paint({}, None)


def _stop_offset(value: str | None) -> float | None:
    if value is None:
        return None
    token = value.strip(WSP)
    scale = 1.0
    if token.endswith("%"):
        token = token[:-1].strip(WSP)
        scale = 0.01
    number = read_number(token)
    return None if number is None else number * scale


def resolve_gradient(node: SvgNode, diagnostics: Diagnostics, location: LocationLike) -> dict[str, str] | None:
    """The v:fill attributes of a two-stop horizontal or vertical gradient.

    Only gradients of exactly two stops at 0% and 100% along a horizontal or
    vertical axis are expressible; everything else records
    UNSUPPORTED_GRADIENT and returns None.
    """

    def unsupported(reason: str) -> None:
        diagnostics.error("UNSUPPORTED_GRADIENT", reason, location)

    stops = [child for child in node.children if child.tag == "stop"]
    if len(stops) != 2:
        unsupported(f"gradient needs exactly 2 stops, got {len(stops)}")
        return None

    offsets = [_stop_offset(stop.attributes.get("offset")) for stop in stops]
    if offsets[0] != 0.0 or offsets[1] != 1.0:
        unsupported("gradient stops must sit at 0% and 100%")
        return None

    x1 = _stop_offset(node.attributes.get("x1", "0"))
    y1 = _stop_offset(node.attributes.get("y1", "0"))
    x2 = _stop_offset(node.attributes.get("x2", "1"))
    y2 = _stop_offset(node.attributes.get("y2", "0"))
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

    colors = [stop.attributes.get("stop-color") for stop in stops]
    if None in colors:
        unsupported("gradient stop without stop-color")
        return None
    return {"type": "gradient", "color": colors[0], "color2": colors[1], "angle": angle}


def resolve_fill_reference(value: str, document: SvgDocument, diagnostics: Diagnostics,
                           location: LocationLike) -> dict[str, str] | None:
    """Resolve a fill of the form url(#id) to its gradient's v:fill attributes."""
    inner = value.strip()[4:-1].strip().strip("'\"")
    if not inner.startswith("#"):
        diagnostics.error("DANGLING_REF", f"unresolvable fill reference {value!r}", location)
        return None
    target = document.id_index.get(inner[1:])
    if target is None:
        diagnostics.error("DANGLING_REF", f"fill references unknown id {inner!r}", location)
        return None
    if target.tag != "linearGradient":
        diagnostics.error("UNSUPPORTED_GRADIENT", f"fill reference {inner!r} is not a linear gradient", location)
        return None
    return resolve_gradient(target, diagnostics, location)

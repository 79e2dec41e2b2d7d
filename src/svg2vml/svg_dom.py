"""SVG text parsing into a typed element tree.

The parser accepts full XML documents, XHTML documents embedding an SVG
fragment, and bare fragments that use namespace prefixes without declaring
them.  Element and attribute names are reduced to local names; the only
prefixed name kept is "xlink:href", the canonical reference attribute.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .diagnostics import Diagnostics, Location, LocationLike
from .numeric import NUMBER_PATTERN, NUMBER_RE, parse_number

SVG_NS = "http://www.w3.org/2000/svg"
XLINK_NS = "http://www.w3.org/1999/xlink"

# Element kinds with a working VML/HTML counterpart.  Everything else parses
# as an "unknown" node and is skipped by the mappers.
IMPLEMENTED_TAGS = frozenset(
    {
        "svg",
        "g",
        "defs",
        "use",
        "circle",
        "ellipse",
        "path",
        "rect",
        "line",
        "polygon",
        "polyline",
        "text",
        "textPath",
        "linearGradient",
        "stop",
        "a",
        "foreignObject",
    }
)

UNKNOWN_TAG = "unknown"


class Point(NamedTuple):
    x: float
    y: float


class ViewBox(NamedTuple):
    min_x: float
    min_y: float
    width: float
    height: float


@dataclass
class SvgNode:
    """One element of the parsed tree.

    `tag` is the element kind (an implemented local name, or "unknown");
    `name` keeps the original local name so unknown and foreign content can
    be re-serialized.
    """

    tag: str
    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["SvgNode"] = field(default_factory=list)
    text: Optional[str] = None
    tail: Optional[str] = None

    def attr(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attributes.get(name, default)

    def iter_nodes(self):
        yield self
        for child in self.children:
            yield from child.iter_nodes()


@dataclass
class SvgDocument:
    root: SvgNode
    id_index: dict[str, SvgNode]
    diagnostics: Diagnostics


_XML_DECL_RE = re.compile(r"^\s*<\?xml[^>]*\?>", re.DOTALL)
_PREFIX_RE = re.compile(r"<\s*/?\s*([A-Za-z_][\w.-]*):")
_ATTR_PREFIX_RE = re.compile(r"[\s\"']([A-Za-z_][\w.-]*):[A-Za-z_][\w.-]*\s*=")

_KNOWN_NAMESPACES = {
    "svg": SVG_NS,
    "xlink": XLINK_NS,
}


def _local_name(qualified: str) -> str:
    if qualified.startswith("{"):
        return qualified.split("}", 1)[1]
    if ":" in qualified:
        return qualified.split(":", 1)[1]
    return qualified


def _attribute_name(qualified: str) -> str:
    if qualified.startswith("{" + XLINK_NS + "}"):
        return "xlink:" + qualified.split("}", 1)[1]
    return _local_name(qualified)


def _parse_xml(text: str, diagnostics: Diagnostics) -> Optional[ET.Element]:
    try:
        return ET.fromstring(text)
    except ET.ParseError as first_error:
        # Fragments may use prefixes without declaring them, or have several
        # top-level elements.  Wrap the payload in a synthetic root that
        # declares every prefix seen in the text, then retry once.
        body = _XML_DECL_RE.sub("", text)
        prefixes = set(_PREFIX_RE.findall(body)) | set(_ATTR_PREFIX_RE.findall(body))
        prefixes.discard("xmlns")
        declarations = "".join(
            f' xmlns:{p}="{_KNOWN_NAMESPACES.get(p, "urn:prefix:" + p)}"'
            for p in sorted(prefixes)
        )
        try:
            return ET.fromstring(f"<wrapper{declarations}>{body}</wrapper>")
        except ET.ParseError:
            diagnostics.error("MALFORMED_XML", f"not well-formed XML: {first_error}")
            return None


def _find_svg_element(root: ET.Element) -> Optional[ET.Element]:
    if _local_name(root.tag) == "svg":
        return root
    for element in root.iter():
        if _local_name(element.tag) == "svg":
            return element
    return None


class _Names(dict):
    """Raw ElementTree names mapped to local names, each converted once."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, raw: str) -> str:
        self[raw] = local = self.convert(raw)
        return local


def _child_location(parent: Optional[LocationLike], name: str, index: int) -> LocationLike:
    return "svg" if parent is None else Location(parent, f"/{name}[{index}]")


class _TreeBuilder:
    """Builds the SvgNode tree and its id index for one parse_svg call.

    A node's location is built only when a diagnostic needs it or its
    children need it as their parent.  Duplicate ids are collected during
    the walk and reported after it, behind every UNKNOWN_ELEMENT warning.
    """

    def __init__(self, diagnostics: Diagnostics):
        self.diagnostics = diagnostics
        self.tag_names = _Names(_local_name)
        self.attribute_names = _Names(_attribute_name)
        self.id_index: dict[str, SvgNode] = {}
        self.duplicate_ids: list[str] = []

    def build(
        self,
        element: ET.Element,
        parent: Optional[LocationLike],
        index: int,
        inside_foreign: bool,
    ) -> SvgNode:
        name = self.tag_names[element.tag]
        if inside_foreign:
            tag = UNKNOWN_TAG
        elif name in IMPLEMENTED_TAGS:
            tag = name
        else:
            tag = UNKNOWN_TAG
            self.diagnostics.warning(
                "UNKNOWN_ELEMENT", f"unsupported element <{name}>", _child_location(parent, name, index)
            )

        attributes: dict[str, str] = {}
        attribute_names = self.attribute_names
        for raw_name, value in element.attrib.items():
            plain = attribute_names[raw_name]
            if plain not in attributes:
                attributes[plain] = value

        node = SvgNode(tag=tag, name=name, attributes=attributes, text=element.text, tail=element.tail)
        node_id = attributes.get("id")
        if node_id is not None:
            if node_id in self.id_index:
                self.duplicate_ids.append(node_id)
            else:
                self.id_index[node_id] = node
        if len(element):
            location = _child_location(parent, name, index)
            foreign_below = inside_foreign or name == "foreignObject"
            children = node.children
            for child_index, child in enumerate(element):
                children.append(self.build(child, location, child_index, foreign_below))
        return node


def parse_svg(text: str, diagnostics: Optional[Diagnostics] = None) -> Optional[SvgDocument]:
    """Parse SVG text into an SvgDocument.

    Returns None when no document can be built (malformed XML, or no svg
    element anywhere in the input); an error diagnostic is recorded in that
    case.  In strict mode the same conditions raise ConversionError.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    xml_root = _parse_xml(text, diagnostics)
    if xml_root is None:
        return None
    svg_element = _find_svg_element(xml_root)
    if svg_element is None:
        diagnostics.error("NO_SVG_ROOT", "no <svg> element found in input")
        return None

    builder = _TreeBuilder(diagnostics)
    root = builder.build(svg_element, None, 0, inside_foreign=False)
    for node_id in builder.duplicate_ids:
        diagnostics.warning("DUPLICATE_ID", f"duplicate id {node_id!r}; first occurrence wins")
    return SvgDocument(root=root, id_index=builder.id_index, diagnostics=diagnostics)


def parse_view_box(
    value: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> Optional[ViewBox]:
    """Parse a viewBox value: four whitespace-separated numbers."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    tokens = value.split()
    if len(tokens) != 4:
        diagnostics.error(
            "BAD_VIEWBOX", f"viewBox needs 4 numbers, got {len(tokens)}: {value!r}", location
        )
        return None
    try:
        numbers = [parse_number(token) for token in tokens]
    except ValueError:
        diagnostics.error("BAD_VIEWBOX", f"non-numeric viewBox token in {value!r}", location)
        return None
    box = ViewBox(*numbers)
    if box.width <= 0 or box.height <= 0:
        diagnostics.error("BAD_VIEWBOX", f"viewBox size must be positive: {value!r}", location)
        return None
    return box


_POINTS_SPLIT_RE = re.compile(r"[\s,]+")
# A whole points list in the strict number grammar.  Numbers need a
# separator between them, so the check is linear in the list's length.
_POINTS_RE = re.compile(rf"[\s,]*(?:{NUMBER_PATTERN}(?:[\s,]+{NUMBER_PATTERN})*)?[\s,]*")


def parse_points(
    value: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> list[Point]:
    """Parse a points list: x,y pairs separated by commas and/or whitespace."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    coords = None
    if _POINTS_RE.fullmatch(value):
        coords = list(map(float, NUMBER_RE.findall(value)))
        if not all(map(math.isfinite, coords)):
            coords = None
    if coords is None:
        # Slow path, only to name the first bad token.
        coords = []
        for token in _POINTS_SPLIT_RE.split(value.strip()):
            if not token:
                continue
            try:
                coords.append(parse_number(token))
            except ValueError:
                diagnostics.error("BAD_POINTS", f"non-numeric coordinate {token!r}", location)
                return []
    if len(coords) % 2 != 0:
        diagnostics.error("BAD_POINTS", f"odd coordinate count ({len(coords)})", location)
    it = iter(coords)
    return list(map(Point, it, it))


# A whole valid length: the number grammar with an optional "px" suffix,
# whitespace allowed around both, as the slow path below reads it.
_LENGTH_RE = re.compile(rf"\s*({NUMBER_PATTERN})(?:\s*px)?\s*")


def parse_length(
    value: str,
    diagnostics: Optional[Diagnostics] = None,
    location: LocationLike = "",
) -> Optional[float]:
    """Parse a length in user units; a "px" suffix is accepted and stripped.

    A bad length records UNSUPPORTED_UNIT when diagnostics are given and
    returns None.
    """
    match = _LENGTH_RE.fullmatch(value)
    if match is not None:
        number = float(match[1])
        if math.isfinite(number):
            return number
    if diagnostics is None:
        return None
    # Slow path, only to word the diagnostic.
    token = value.strip()
    if token.endswith("px"):
        token = token[:-2].strip()
    suffix = NUMBER_RE.match(token)
    if suffix and token[suffix.end():].strip():
        diagnostics.error(
            "UNSUPPORTED_UNIT",
            f"unsupported length unit {token[suffix.end():].strip()!r} in {value!r}",
            location,
        )
    else:
        diagnostics.error("UNSUPPORTED_UNIT", f"invalid length {value!r}", location)
    return None


def structurally_equal(a: Optional[SvgNode], b: Optional[SvgNode]) -> bool:
    """Compare two trees by local name, attribute table, order and payload."""
    if a is None or b is None:
        return a is b

    def norm(text: Optional[str]) -> str:
        return (text or "").strip()

    if a.name != b.name or norm(a.text) != norm(b.text):
        return False
    if list(a.attributes.items()) != list(b.attributes.items()):
        return False
    if len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))

"""SVG text parsing into a typed element tree.

The input is XML text: an SVG document, a host page (XHTML or any other
XML) that holds the drawing anywhere below its root, or a fragment.  The
tree is built from the first `svg` start tag in document order, whatever
its prefix, to its end tag; everything outside it is ignored.

One expat parser runs without namespace processing, so names arrive as
written.  It comes from `pyexpat`, the C module that `xml.parsers.expat`
re-exports, so the import loads none of the `xml` package.  An element
keeps its local name, the part after any prefix.  An attribute prefix
resolves through the `xmlns:` declarations in scope, where an undeclared
`xlink` means the XLink namespace: a name bound to XLink becomes
"xlink:<local>", the `xml` prefix (always bound, never declared) is kept,
as in "xml:space", any other prefix is stripped, and `xmlns` declarations
are dropped.  When two names reduce alike, the first wins.  Only an
element with a prefixed name or `xmlns` runs these rules, and of those
only one with a name outside its scope's plain set (the names the mappers
read, and `xlink:href` while `xlink` means XLink); the rest keep their
attributes as expat gives them, which the rules would not change.

Text follows ElementTree's rules: an element's text runs up to its first
child and each child's tail up to the next tag, the root's tail included;
comments and processing instructions are skipped, CDATA and entities
folded in.  Input that is not well-formed is parsed once more as the
content of a plain <wrapper> element, without its XML declaration, which
accepts fragments with several top-level elements or text around them; if
that fails too, the first error is reported as MALFORMED_XML.  Text that
cannot be encoded as UTF-8 (a lone surrogate) is malformed too.  Elements
nested deeper than MAX_DEPTH are left out with their subtrees, and the
first of them is reported as TOO_DEEP.

viewBox, points and lengths read numbers and separators through `numeric`;
any other character there is an error under the attribute's own code.
"""

from __future__ import annotations

import pyexpat as expat
import re
from collections import namedtuple

from .diagnostics import Diagnostics, Location, LocationLike
from .numeric import NUMBER_RE, WSP, read_number, read_numbers, split_list

SVG_NS = "http://www.w3.org/2000/svg"
XLINK_NS = "http://www.w3.org/1999/xlink"

# Element kinds with a working VML/HTML counterpart.  Everything else parses
# as an "unknown" node and is skipped by the mappers.
IMPLEMENTED_TAGS = frozenset({
    "svg", "g", "defs", "use", "circle", "ellipse", "path", "rect", "line", "polygon", "polyline",
    "text", "textPath", "linearGradient", "stop", "a", "foreignObject",
})

UNKNOWN_TAG = "unknown"

# Mapping and emitting recurse once per level, so the tree is cut at this
# depth (the root svg is level 1) well inside Python's recursion limit, and
# mapping counts each use hop as one more level against the same cap.
MAX_DEPTH = 200

# use references can copy a subtree many times over; mapping stops after
# EXPANSION_ALLOWANCE mapped elements plus MAX_EXPANSION per element the
# parser kept. The allowance lets a symbol be used many times over (a sprite
# sheet maps about symbol size x uses); only chains and trees of use that
# grow faster than the input run past it.
MAX_EXPANSION = 16
EXPANSION_ALLOWANCE = 100_000


def expansion_budget(elements: int) -> int:
    """The mapped elements allowed for a document of this many parsed elements."""
    return EXPANSION_ALLOWANCE + MAX_EXPANSION * elements


ViewBox = namedtuple("ViewBox", "min_x min_y width height")
ViewBox.__doc__ = """A parsed viewBox: four floats, min_x, min_y, width and height; both sizes positive."""


class TreeNode:
    """Base of the parsed and the mapped tree nodes, which list their fields in __slots__.

    Nodes compare field by field, and only with nodes of their own class;
    they are mutable, so they have no hash.
    """

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__name__}({fields})"


class SvgNode(TreeNode):
    """One element of the parsed tree.

    `tag` is the element kind (an implemented local name, or "unknown");
    `name` keeps the original local name so unknown and foreign content can
    be re-serialized.
    """

    __slots__ = ("tag", "name", "attributes", "children", "text", "tail")

    def __init__(self, tag: str, name: str, attributes: dict[str, str] | None = None,
                 children: list["SvgNode"] | None = None, text: str | None = None,
                 tail: str | None = None):
        self.tag = tag
        self.name = name
        self.attributes = {} if attributes is None else attributes
        self.children = [] if children is None else children
        self.text = text
        self.tail = tail

    def iter_nodes(self):
        yield self
        for child in self.children:
            yield from child.iter_nodes()


SvgDocument = namedtuple("SvgDocument", "root id_index diagnostics elements")
SvgDocument.__doc__ = """What parse_svg returns.

root: SvgNode, the first svg element
id_index: dict[str, SvgNode], each id's first element
diagnostics: Diagnostics, the collector the parse reported to
elements: int, the nodes of the tree, the root included
"""

# Only the fragment fallback reads it, through re's own cache.
_XML_DECL = r"^\s*<\?xml[^>]*\?>"

# Attribute names that read as written in any scope: those the mappers and
# style read (a superset of what perfbench/corpus.py writes), none with a
# colon and none of them `xmlns`.  While `xlink` means XLink, `xlink:href`
# reads as written too.  The set only spares an element with a prefixed
# name, such as a use with `xlink:href`, from resolving; an element without
# one skips resolution whatever its names, so a name left out costs nothing.
_PLAIN = frozenset({
    "id", "transform", "x", "y", "width", "height", "rx", "ry", "cx", "cy", "r", "x1", "y1", "x2", "y2", "d",
    "points", "viewBox", "fill", "fill-opacity", "stroke", "stroke-width", "stroke-opacity", "stroke-linecap",
    "stroke-linejoin", "stroke-miterlimit", "opacity", "offset", "stop-color", "href", "startOffset",
    "font-size", "font-family", "dx", "dy",
})
_PLAIN_XLINK = _PLAIN | {"xlink:href"}


def _scope(bindings: dict[str, str]) -> tuple[dict[str, str], frozenset[str]]:
    """A scope-stack entry: the prefix bindings and the names that read as written under them."""
    return bindings, _PLAIN_XLINK if bindings.get("xlink") == XLINK_NS else _PLAIN


# Prefixes bound before any declaration; every other prefix is stripped.
_UNDECLARED = _scope({"xlink": XLINK_NS})


class _Builder:
    """Expat handlers that build the SvgNode tree of one parse.

    `open` runs from the root to the current element, each the last child
    of the one before it.  Elements outside the first svg only open and
    close their prefix scope.  Each `scopes` entry pairs the bindings with
    their plain set, and only an element with a name outside it and a
    prefixed name or `xmlns` among its names runs `_resolve_prefixes`.
    Both handlers write the pending character data to the text of `last`,
    or to its tail once it has `ended`, inline (the per-element hot path).
    An element past MAX_DEPTH is skipped with its subtree, text and tail;
    `too_deep` keeps the location of the first one.
    """

    def __init__(self) -> None:
        self.root: SvgNode | None = None
        self.open: list[SvgNode] = []
        self.foreign: SvgNode | None = None  # the open foreignObject, if any
        self.scopes = [_UNDECLARED]
        self.data: list[str] = []
        self.last: SvgNode | None = None
        self.ended = False
        self.unknown: list[tuple[str, LocationLike]] = []
        self.id_index: dict[str, SvgNode] = {}
        self.duplicate_ids: list[tuple[str, LocationLike]] = []  # each id with the element that lost it
        self.skipped = 0  # open elements past MAX_DEPTH
        self.elements = 0
        self.too_deep: LocationLike | None = None

    def start(self, name: str, attributes: dict[str, str]) -> None:
        scope = self.scopes[-1]
        if not scope[1].issuperset(attributes) and (":" in "".join(attributes) or "xmlns" in attributes):
            scope, attributes = _resolve_prefixes(scope, attributes)
        self.scopes.append(scope)
        data = self.data
        if data:
            if self.last is not None:
                if self.ended:
                    self.last.tail = "".join(data)
                else:
                    self.last.text = "".join(data)
            data.clear()
        local = name[name.find(":") + 1 :] if ":" in name else name
        if len(self.open) == MAX_DEPTH:
            if self.too_deep is None:
                self.too_deep = self.location(local)
            self.skipped += 1
            self.last = None
            return
        if self.open:
            if local in IMPLEMENTED_TAGS and self.foreign is None:
                node = SvgNode(local, local, attributes)
                if local == "foreignObject":
                    self.foreign = node
            else:
                if self.foreign is None:
                    self.unknown.append((local, self.location(local)))
                node = SvgNode(UNKNOWN_TAG, local, attributes)
            self.open[-1].children.append(node)
            self.open.append(node)
        elif self.root is None and local == "svg":
            node = self.root = SvgNode("svg", local, attributes)
            self.open.append(node)
        else:
            self.last = None
            return
        self.last = node
        self.ended = False
        self.elements += 1
        node_id = attributes.get("id")
        if node_id is not None and self.id_index.setdefault(node_id, node) is not node:
            self.duplicate_ids.append((node_id, self.location()))

    def end(self, name: str) -> None:
        self.scopes.pop()
        data = self.data
        if data:
            if self.last is not None:
                if self.ended:
                    self.last.tail = "".join(data)
                else:
                    self.last.text = "".join(data)
            data.clear()
        if self.skipped:
            self.skipped -= 1
            self.last = None
        elif self.open:
            node = self.last = self.open.pop()
            self.ended = True
            if node is self.foreign:
                self.foreign = None
        else:
            self.last = None

    def location(self, name: str | None = None) -> LocationLike:
        """The tree path of the newest open element, or of a new child `name` of it."""
        location: LocationLike = "svg"
        for parent, child in zip(self.open, self.open[1:]):
            location = Location(location, child.name, len(parent.children) - 1)
        return location if name is None else Location(location, name, len(self.open[-1].children))


def _resolve_prefixes(scope: tuple, attributes: dict[str, str]) -> tuple[tuple, dict]:
    """The element's scope-stack entry, and its attributes under resolved names."""
    declared = {raw[6:]: uri for raw, uri in attributes.items() if raw.startswith("xmlns:")}
    if declared:
        scope = _scope({**scope[0], **declared})
    bindings = scope[0]
    resolved: dict[str, str] = {}
    for raw, value in attributes.items():
        prefix, colon, local = raw.partition(":")
        if prefix != "xmlns":
            name = raw
            if colon and prefix != "xml":
                name = "xlink:" + local if bindings.get(prefix) == XLINK_NS else local
            resolved.setdefault(name, value)
    return scope, resolved


def _build(text: str) -> _Builder:
    builder = _Builder()
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data.append

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        # Behind an external DTD, expat leaves an undefined entity to us; it is still an error.
        if not is_parameter_entity:
            line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
            raise expat.ExpatError(f"undefined entity &{name};: line {line}, column {column}")

    parser.SkippedEntityHandler = skipped_entity
    try:
        parser.Parse(text, True)
    finally:
        # The handler holds the parser: break the cycle so the tree is freed with its document.
        parser.SkippedEntityHandler = None
    return builder


def parse_svg(text: str, diagnostics: Diagnostics | None = None) -> SvgDocument | None:
    """Parse SVG text into an SvgDocument.

    Returns None when no document can be built (malformed XML, or no svg
    element anywhere in the input); an error diagnostic is recorded in that
    case, in strict mode too.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    try:
        builder = _build(text)
    except (expat.ExpatError, UnicodeEncodeError) as error:  # expat reads UTF-8: a lone surrogate fails
        # A fragment: parse its body once more as the content of one element.
        try:
            builder = _build(f"<wrapper>{re.sub(_XML_DECL, '', text)}</wrapper>")
        except (expat.ExpatError, UnicodeEncodeError):
            diagnostics.error("MALFORMED_XML", f"not well-formed XML: {error}")
            return None
    if builder.root is None:
        diagnostics.error("NO_SVG_ROOT", "no <svg> element found in input")
        return None
    for name, location in builder.unknown:
        diagnostics.warning("UNKNOWN_ELEMENT", f"unsupported element <{name}>", location)
    if builder.too_deep is not None:
        diagnostics.error(
            "TOO_DEEP", f"elements nest deeper than {MAX_DEPTH} levels; the deeper ones are skipped", builder.too_deep
        )
    for node_id, location in builder.duplicate_ids:
        diagnostics.warning("DUPLICATE_ID", f"duplicate id {node_id!r}; first occurrence wins", location)
    return SvgDocument(builder.root, builder.id_index, diagnostics, builder.elements)


def parse_view_box(value: str, diagnostics: Diagnostics, location: LocationLike) -> ViewBox | None:
    """Parse a viewBox value: a list of four numbers."""
    numbers = read_numbers(value)
    tokens = numbers if numbers is not None else split_list(value)
    if len(tokens) != 4:
        diagnostics.error(
            "BAD_VIEWBOX", f"viewBox needs 4 numbers, got {len(tokens)}: {value!r}", location
        )
        return None
    if numbers is None:
        diagnostics.error("BAD_VIEWBOX", f"non-numeric viewBox token in {value!r}", location)
        return None
    box = ViewBox(*numbers)
    if box.width <= 0 or box.height <= 0:
        diagnostics.error("BAD_VIEWBOX", f"viewBox size must be positive: {value!r}", location)
        return None
    return box


def parse_points(value: str, diagnostics: Diagnostics, location: LocationLike) -> list[float]:
    """Parse a points list into its flat coordinates: x0, y0, x1, y1, ...

    An odd count is reported and its last coordinate dropped.
    """
    coords = read_numbers(value)
    if coords is None:
        # Only to name the first bad token; a list the grammar rejects holds one.
        for token in split_list(value):
            if read_number(token) is None:
                diagnostics.error("BAD_POINTS", f"non-numeric coordinate {token!r}", location)
                return []
    if len(coords) % 2 != 0:
        diagnostics.error("BAD_POINTS", f"odd coordinate count ({len(coords)})", location)
        del coords[-1]
    return coords


def parse_length(value: str, diagnostics: Diagnostics, location: LocationLike) -> float | None:
    """Parse a length in user units; a "px" suffix is accepted and stripped.

    A bad length records UNSUPPORTED_UNIT and returns None.
    """
    token = value.strip(WSP)
    if token.endswith("px"):
        token = token[:-2].rstrip(WSP)
    number = read_number(token)
    if number is not None:
        return number
    # Only to word the diagnostic.
    suffix = NUMBER_RE.match(token)
    rest = token[suffix.end():] if suffix else ""
    unit = rest.strip(WSP)
    if re.match("[eE][+-]?[0-9]", rest):
        diagnostics.error("UNSUPPORTED_UNIT", f"exponent notation is not supported in {value!r}", location)
    elif unit:
        diagnostics.error("UNSUPPORTED_UNIT", f"unsupported length unit {unit!r} in {value!r}", location)
    else:
        diagnostics.error("UNSUPPORTED_UNIT", f"invalid length {value!r}", location)
    return None

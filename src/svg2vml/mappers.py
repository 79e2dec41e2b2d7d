"""Element-by-element translation of the SVG tree into a VML/HTML tree.

Every implemented element kind has exactly one mapper.  Each mapper makes
its output node with one constructor, `_new`, which carries the element's id
over, and writes its left, top, width and height with one box writer,
`_write_box`.  Every drawn shape (rect, circle, ellipse, line, polyline,
polygon, path) then takes one paint step, `_paint`: stroke and fill become
v:stroke and v:fill children, opacity an alpha filter.  Last, the transform
simulation strategy for the element's family runs; its offset rules read
the box back from the style as written, rounded to the precision, and the
moved origin goes through `_write_box` again.  The paint and transform of a
group (a g or an a) are not emitted on the group itself: its context carries
them down, parsed once (`style.Paint`, `transform.Chain`), and each element
extends them by its own values, which take precedence.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .diagnostics import Diagnostics, Location, LocationLike
from .numeric import format_number, format_numbers
from .options import ConvertOptions
from .path_data import emit_vml_path, is_finite_path, parse_path_data, to_absolute

# resolve_fill_reference takes no part in mapping here, where style.Paint
# resolves fill references; it stays bound because perfbench/spans.py
# rebinds it by name.
from .style import (  # noqa: F401
    INHERITED,
    NO_PAINT,
    NONE_FLAGS,
    Paint,
    alpha_filter,
    resolve_fill_reference,
)
from .svg_dom import (
    MAX_DEPTH,
    Point,
    SvgDocument,
    SvgNode,
    TreeNode,
    expansion_budget,
    parse_length,
    parse_points,
    parse_view_box,
)
# compose_ctm takes no part in mapping, where each Chain composes its own
# list; it stays bound here because perfbench/spans.py rebinds it by name.
from .transform import (  # noqa: F401
    EMPTY_CHAIN,
    OVERFLOW_IGNORED,
    STRATEGY_BY_TAG,
    Chain,
    Placement,
    RootSize,
    ShapeBox,
    compose_ctm,
    parse_transform_list,
    place,
    recalc_points,
)

# Not called in mapping; bound because perfbench/spans.py rebinds
# shift_commands by name in this module during its traced run.
shift_commands = to_absolute


class VmlNode(TreeNode):
    """Output tree node: a VML or plain HTML element."""

    __slots__ = ("tag", "attributes", "style", "children", "text", "tail")

    def __init__(self, tag: str, attributes: Optional[dict[str, str]] = None,
                 style: Optional[dict[str, str]] = None, children: Optional[list["VmlNode"]] = None,
                 text: Optional[str] = None, tail: Optional[str] = None):
        self.tag = tag
        self.attributes = {} if attributes is None else attributes
        self.style = {} if style is None else style
        self.children = [] if children is None else children
        self.text = text
        self.tail = tail

    def find(self, tag: str) -> Optional["VmlNode"]:
        for child in self.children:
            if child.tag == tag:
                return child
        return None


class MapperContext:
    """What mapping one element reads from its place in the tree.

    A context is never changed once made: `at` and `derive` copy it.
    """

    def __init__(self, document: SvgDocument, root_size: RootSize, options: ConvertOptions,
                 diagnostics: Diagnostics, budget: list[int], paint: Paint = NO_PAINT,
                 chain: Chain = EMPTY_CHAIN, ref_stack: frozenset = frozenset(),
                 location: LocationLike = "svg", depth: int = 1):
        self.document = document
        self.root_size = root_size
        self.options = options
        self.diagnostics = diagnostics
        self.budget = budget  # mapper calls left, one counter shared by every context of a document
        self.paint = paint  # what the enclosing groups hand down
        self.chain = chain
        self.ref_stack = ref_stack
        self.location = location
        self.depth = depth  # the root svg is level 1; each child and each use hop adds one

    def at(self, step: str) -> "MapperContext":
        """The context for a child element; step is "/name[index]"."""
        derived = object.__new__(MapperContext)  # derive's copy, inlined: this runs once per child
        derived.__dict__.update(self.__dict__, location=Location(self.location, step), depth=self.depth + 1)
        return derived

    def derive(self, **changes) -> "MapperContext":
        """A copy with the given fields changed.

        The copy skips __init__, which would cost more than the copy itself
        on the per-child path.
        """
        derived = object.__new__(MapperContext)
        derived.__dict__.update(self.__dict__, **changes)
        return derived


def _fmt(ctx: MapperContext, value: float) -> str:
    return format_number(value, ctx.options.precision)


def _attribute_location(ctx: MapperContext, name: str) -> Location:
    return Location(ctx.location, f"@{name}")


def _length(ctx: MapperContext, node: SvgNode, name: str) -> Optional[float]:
    raw = node.attr(name)
    if raw is None:
        return None
    value = parse_length(raw)
    if value is None:
        # Parsed again only to record the diagnostic at the attribute.
        parse_length(raw, ctx.diagnostics, _attribute_location(ctx, name))
    return value


def _effective_chain(node: SvgNode, ctx: MapperContext) -> Chain:
    """The inherited chain extended by the node's own transform list."""
    own_raw = node.attr("transform")
    if own_raw is None:
        return ctx.chain
    own = parse_transform_list(own_raw, ctx.diagnostics, _attribute_location(ctx, "transform"))
    return ctx.chain.extend(own)


# --- shared passes -----------------------------------------------------------


def _new(node: SvgNode, tag: str) -> VmlNode:
    """The output node for node, carrying its id over."""
    node_id = node.attr("id")
    return VmlNode(tag, {"id": node_id} if node_id is not None else {})


def _write_box(ctx: MapperContext, mapped: VmlNode, left: Optional[float], top: Optional[float],
               width: Optional[float] = None, height: Optional[float] = None) -> None:
    """Write left, top, width and height ahead of every other style key; None leaves a key out.

    The one place a mapper writes an element's position and size.
    """
    precision = ctx.options.precision
    box = {}
    if left is not None:
        box["left"] = format_number(left, precision)
    if top is not None:
        box["top"] = format_number(top, precision)
    if width is not None:
        box["width"] = format_number(width, precision)
    if height is not None:
        box["height"] = format_number(height, precision)
    for key, value in mapped.style.items():
        box.setdefault(key, value)
    mapped.style = box


def _append_filter(mapped: VmlNode, filter_text: str) -> None:
    existing = mapped.style.get("filter")
    mapped.style["filter"] = f"{existing} {filter_text}" if existing else filter_text


def _report_ignored(node: SvgNode, ctx: MapperContext, names: tuple[str, ...], owner: str) -> None:
    """An UNSUPPORTED_ATTRIBUTE warning for each of names that node carries."""
    for name in names:
        if node.attr(name) is not None:
            message = f"{name} on {owner} has no VML mapping and is ignored"
            ctx.diagnostics.warning("UNSUPPORTED_ATTRIBUTE", message, ctx.location)


def _paint(node: SvgNode, ctx: MapperContext, shape: VmlNode, names: tuple[str, ...] = INHERITED) -> None:
    """Write the inherited paint, extended by the node's own properties among names, onto shape.

    Fill and stroke values become one v:fill and one v:stroke child at most,
    in the paint's order; a "none" fill or stroke sets filled or stroked to
    "f" instead.  Opacity becomes an alpha filter.
    """
    paint = ctx.paint.extend(node, ctx.document, ctx.options.precision, ctx.diagnostics, ctx.location, names)
    stroke_child: Optional[VmlNode] = None
    for name, mapped in paint.values.items():
        if mapped is None:
            continue
        if mapped is NONE_FLAGS.get(name):
            shape.attributes[mapped[0]] = mapped[1]
        elif name == "fill":
            shape.children.append(VmlNode("v:fill", dict(mapped)))
        else:
            if stroke_child is None:
                stroke_child = VmlNode("v:stroke")
                shape.children.append(stroke_child)
            stroke_child.attributes[mapped[0]] = mapped[1]
    if paint.opacity is not None:
        _append_filter(shape, alpha_filter(paint.opacity, ctx.options.precision))


# --- transform simulation ----------------------------------------------------

_EMPTY_BOX = ShapeBox(0.0, 0.0, 0.0, 0.0)


def _place(node: SvgNode, ctx: MapperContext, mapped: Optional[VmlNode]) -> Optional[Placement]:
    """The placement of the element's transform chain; None when the chain is empty.

    The offset rules read the box as written in mapped's style, 0.0 for an
    absent key; a path (mapped None) has the empty box.
    """
    chain = _effective_chain(node, ctx)
    if not chain.ops:
        return None
    if mapped is None:
        box = _EMPTY_BOX
    else:
        get = mapped.style.get
        box = ShapeBox(float(get("left", 0)), float(get("top", 0)), float(get("width", 0)), float(get("height", 0)))
    strategy = STRATEGY_BY_TAG[node.tag]
    return place(strategy, chain, box, ctx.root_size, ctx.options.precision, ctx.diagnostics, ctx.location)


def _finite(ctx: MapperContext, message: str, *values: float) -> bool:
    """True when every value is finite; otherwise reports message as a DEGENERATE_SHAPE error."""
    if all(map(math.isfinite, values)):
        return True
    ctx.diagnostics.error("DEGENERATE_SHAPE", message, ctx.location)
    return False


def _apply_box_transform(node: SvgNode, ctx: MapperContext, mapped: VmlNode) -> None:
    """Write the element's placement: its position, skew child or matrix filter."""
    placed = _place(node, ctx, mapped)
    if placed is None:
        return
    if placed.origin is not None:
        _write_box(ctx, mapped, *placed.origin)
    if placed.skew is not None:
        mapped.children.append(VmlNode("v:skew", placed.skew))
    if placed.filter is not None:
        _append_filter(mapped, placed.filter)


# --- element mappers ----------------------------------------------------------


def map_svg_root(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """svg -> v:group; viewBox becomes coordorigin/coordsize."""
    group = _new(node, "v:group")
    width = _length(ctx, node, "width")
    height = _length(ctx, node, "height")

    raw_box = node.attr("viewBox")
    box = (
        parse_view_box(raw_box, ctx.diagnostics, _attribute_location(ctx, "viewBox"))
        if raw_box is not None
        else None
    )
    if box is not None:
        group.attributes["coordorigin"] = f"{_fmt(ctx, box.min_x)},{_fmt(ctx, box.min_y)}"
        group.attributes["coordsize"] = f"{_fmt(ctx, box.width)},{_fmt(ctx, box.height)}"
    else:
        if raw_box is None:
            ctx.diagnostics.warning(
                "MISSING_VIEWBOX", "svg has no viewBox; coordinate system defaults", ctx.location
            )
        group.attributes["coordorigin"] = "0,0"
        if width is not None and height is not None:
            group.attributes["coordsize"] = f"{_fmt(ctx, width)},{_fmt(ctx, height)}"

    _write_box(ctx, group, None, None, width, height)
    if node is ctx.document.root:
        # The skew-path offset rule reads the root size: width and height,
        # else the viewBox size, else 0.
        box_width, box_height = (box.width, box.height) if box is not None else (0.0, 0.0)
        root_size = RootSize(box_width if width is None else width, box_height if height is None else height)
        ctx = ctx.derive(root_size=root_size)
    _map_children(node, ctx, group)
    return group


def _group_context(node: SvgNode, ctx: MapperContext) -> MapperContext:
    """The context of a g's or an a's children: its inheritable paint and transform pushed down."""
    paint = ctx.paint.extend(node, ctx.document, ctx.options.precision, ctx.diagnostics, ctx.location)
    return ctx.derive(paint=paint, chain=_effective_chain(node, ctx))


def map_g(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """g -> v:group; inheritable attributes distribute to the children."""
    group = _new(node, "v:group")
    _map_children(node, _group_context(node, ctx), group)
    return group


def map_rect(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """rect -> v:roundrect; rx/ry become the arcsize rounding ratio."""
    mark = len(ctx.diagnostics)
    width = _length(ctx, node, "width")
    height = _length(ctx, node, "height")
    if width is None or height is None or width <= 0 or height <= 0:
        _report_degenerate(ctx, mark, "rect needs positive width and height; skipped")
        return None
    x = _length(ctx, node, "x")
    y = _length(ctx, node, "y")

    shape = _new(node, "v:roundrect")
    arcsize: Optional[float] = None
    for name in node.attributes:
        if name == "rx":
            radius = _length(ctx, node, "rx")
            if radius is not None:
                arcsize = radius / (width / 2)
        elif name == "ry":
            radius = _length(ctx, node, "ry")
            if radius is not None:
                arcsize = radius / (height / 2)
    if arcsize is not None:
        shape.attributes["arcsize"] = _fmt(ctx, min(1.0, max(0.0, arcsize)))

    _write_box(ctx, shape, x, y, width, height)

    _paint(node, ctx, shape)
    _apply_box_transform(node, ctx, shape)
    return shape


def _report_degenerate(ctx: MapperContext, mark: int, message: str) -> None:
    """A DEGENERATE_SHAPE warning, unless a length read after mark was already reported."""
    if not ctx.diagnostics.errors_since(mark):
        ctx.diagnostics.warning("DEGENERATE_SHAPE", message, ctx.location)


def map_oval(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """circle/ellipse -> v:oval with left/top/width/height derived from cx, cy and r or rx, ry."""
    mark = len(ctx.diagnostics)
    if node.tag == "circle":
        rx = ry = _length(ctx, node, "r")
        missing = "circle without r; skipped"
    else:
        rx = _length(ctx, node, "rx")
        ry = _length(ctx, node, "ry")
        missing = "ellipse without rx/ry; skipped"
    if rx is None or ry is None:
        _report_degenerate(ctx, mark, missing)
        return None
    if rx < 0 or ry < 0:
        ctx.diagnostics.error("DEGENERATE_SHAPE", "negative radius", ctx.location)
        return None
    cx = _length(ctx, node, "cx") or 0.0
    cy = _length(ctx, node, "cy") or 0.0
    left, top = cx - rx, cy - ry
    width, height = 2 * rx, 2 * ry
    overflow = "box overflows to a non-finite value; skipped"
    if not _finite(ctx, overflow, left, top, width, height):
        return None

    oval = _new(node, "v:oval")
    _write_box(ctx, oval, left, top, width, height)
    _paint(node, ctx, oval)
    _apply_box_transform(node, ctx, oval)
    return oval


def map_poly(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """line/polyline/polygon -> v:shape; transforms recompute every point."""
    if node.tag == "line":
        points = [
            Point(_length(ctx, node, "x1") or 0.0, _length(ctx, node, "y1") or 0.0),
            Point(_length(ctx, node, "x2") or 0.0, _length(ctx, node, "y2") or 0.0),
        ]
    else:
        points = parse_points(node.attr("points", ""), ctx.diagnostics, ctx.location)
    if len(points) < 2:
        ctx.diagnostics.warning(
            "DEGENERATE_SHAPE", f"{node.tag} needs at least 2 points; skipped", ctx.location
        )
        return None

    closed = node.tag == "polygon"
    chain = _effective_chain(node, ctx)
    if chain.ops:
        # The points as read are finite, so only the transform can overflow.
        path = _points_path(recalc_points(chain.ctm, points), closed, ctx.options.precision)
        if is_finite_path(path):
            return _path_shape(node, ctx, path)
        ctx.diagnostics.error("BAD_TRANSFORM", OVERFLOW_IGNORED, ctx.location)
    return _path_shape(node, ctx, _points_path(points, closed, ctx.options.precision))


def _points_path(points: list[Point], closed: bool, precision: int) -> str:
    """The VML path through the points, closed for a polygon: one template, one format call."""
    template = "m %s,%s" + " l %s,%s" * (len(points) - 1) + (" x e" if closed else " e")
    return template % tuple(format_numbers([value for point in points for value in point], precision))


def _path_shape(node: SvgNode, ctx: MapperContext, path: str) -> Optional[VmlNode]:
    """The painted v:shape for a VML path; None, reported, if it is not finite."""
    if not is_finite_path(path):
        ctx.diagnostics.error(
            "BAD_PATH", f"{node.tag} coordinates overflow to a non-finite value; skipped", ctx.location
        )
        return None
    shape = _new(node, "v:shape")
    shape.attributes["path"] = path
    _paint(node, ctx, shape)
    return shape


def map_path(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """path -> v:shape; the d attribute is normalized to absolute commands."""
    d = node.attr("d")
    if d is None:
        ctx.diagnostics.warning("DEGENERATE_SHAPE", "path without d; skipped", ctx.location)
        return None
    mark = len(ctx.diagnostics)
    segments = parse_path_data(d, ctx.diagnostics, _attribute_location(ctx, "d"))
    if ctx.diagnostics.errors_since(mark):
        return None
    if not segments:
        ctx.diagnostics.warning("DEGENERATE_SHAPE", "path with empty d; skipped", ctx.location)
        return None

    placed = _place(node, ctx, None)
    origin, skew = (placed.origin, placed.skew) if placed is not None else (None, None)
    dx, dy = origin or (0.0, 0.0)
    shape = _path_shape(node, ctx, emit_vml_path(to_absolute(segments, dx, dy), ctx.options.precision))
    if shape is not None and skew is not None:
        shape.children.append(VmlNode("v:skew", skew))
    return shape


def map_text(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """text -> v:textbox (or the referenced shape when wrapping a textPath)."""
    for index, child in enumerate(node.children):
        if child.tag == "textPath":
            dropped = ("opacity", "fill-opacity", "transform", "x", "y", "dx", "dy")
            _report_ignored(node, ctx, dropped, "a text holding a textPath")
            child_ctx = ctx.at(f"/{child.name}[{index}]")
            _report_ignored(child, child_ctx, ("startOffset",), "a textPath")
            return map_text_path(child, child_ctx, node, ctx)

    _report_ignored(node, ctx, ("dx", "dy"), "a text")
    x = _length(ctx, node, "x")
    top = _length(ctx, node, "y")
    if top is not None:
        font_size = _length(ctx, node, "font-size")
        if font_size is None:
            font_size = 16.0
            # An unreadable font-size was reported where it was read.
            if node.attr("font-size") is None:
                ctx.diagnostics.warning("DEFAULT_FONT_SIZE", "text without font-size; assuming 16", ctx.location)
        top -= font_size
        if not _finite(ctx, "top overflows to a non-finite value; skipped", top):
            return None
    box = _new(node, "v:textbox")
    _write_box(ctx, box, x, top)
    if node.text and node.text.strip():
        box.text = node.text.strip()
    _paint(node, ctx, box, ("opacity",))
    _apply_box_transform(node, ctx, box)
    return box


def map_text_path(node: SvgNode, ctx: MapperContext, parent: SvgNode, parent_ctx: MapperContext) -> Optional[VmlNode]:
    """textPath -> the referenced path's v:shape, augmented for text-on-path.

    ctx locates the textPath's own reference and transform; the target path
    and the text's font-size are read under the text's parent_ctx.
    """
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    if target.tag != "path":
        ctx.diagnostics.error(
            "DANGLING_REF", "textPath reference is not a path element", ctx.location
        )
        return None

    shape = map_path(target, parent_ctx)
    if shape is None:
        return None
    path_flag = VmlNode("v:path")
    path_flag.attributes["textpathok"] = "t"
    shape.children.append(path_flag)

    text_path = VmlNode("v:textpath")
    text_path.attributes["on"] = "t"
    text_path.attributes["string"] = (node.text or "").strip()
    font_tokens = []
    font_size = _length(parent_ctx, parent, "font-size")
    if font_size is not None:
        font_tokens.append(f"FONT-SIZE:{_fmt(ctx, font_size)}")
    family = parent.attr("font-family")
    if family is not None:
        font_tokens.append(f"FONT-FAMILY:{family}")
    if font_tokens:
        text_path.attributes["style"] = ";".join(font_tokens)
    shape.children.append(text_path)
    _apply_box_transform(node, ctx, shape)
    return shape


def map_foreign_object(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """foreignObject -> v:textbox carrying its markup through unchanged."""
    box = _new(node, "v:textbox")
    _write_box(ctx, box, *(_length(ctx, node, name) for name in ("x", "y", "width", "height")))
    if node.text and node.text.strip():
        box.text = node.text
    for child in node.children:
        box.children.append(_map_verbatim(child))
    _paint(node, ctx, box, ("opacity",))
    _apply_box_transform(node, ctx, box)
    return box


def _map_verbatim(node: SvgNode) -> VmlNode:
    mapped = VmlNode(node.name, attributes=dict(node.attributes), text=node.text, tail=node.tail)
    mapped.children = [_map_verbatim(child) for child in node.children]
    return mapped


def map_defs(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """defs -> hidden html:div; the content only shows through references."""
    div = _new(node, "html:div")
    div.style["visibility"] = "hidden"
    _map_children(node, ctx, div)
    return div


def map_use(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """use -> html:div containing the referenced element, mapped again in place under the use's paint."""
    div = _new(node, "html:div")
    _write_box(ctx, div, *(_length(ctx, node, name) for name in ("x", "y", "width", "height")))
    _report_ignored(node, ctx, ("transform",), "a use")
    # Read before the reference, so a paint fault is reported whether or not it resolves.
    paint = ctx.paint.extend(node, ctx.document, ctx.options.precision, ctx.diagnostics, ctx.location)

    if _href(node) is None:
        ctx.diagnostics.warning("MISSING_HREF", "use without a reference", ctx.location)
        return div
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    ref_id = target.attr("id") or ""
    child_ctx = ctx.derive(paint=paint, ref_stack=ctx.ref_stack | {ref_id}, depth=ctx.depth + 1)
    mapped = _map_node(target, child_ctx)
    if mapped is not None:
        div.children.append(mapped)
    return div


def _href(node: SvgNode) -> Optional[str]:
    """The link target: xlink:href when present, else href."""
    return node.attributes.get("xlink:href", node.attr("href"))


def _resolve_reference(node: SvgNode, ctx: MapperContext) -> Optional[SvgNode]:
    raw = _href(node)
    if raw is None or not raw.startswith("#"):
        ctx.diagnostics.error("DANGLING_REF", f"unresolvable reference {raw!r}", ctx.location)
        return None
    ref_id = raw[1:]
    if ref_id in ctx.ref_stack:
        ctx.diagnostics.error("DANGLING_REF", f"circular reference to #{ref_id}", ctx.location)
        return None
    target = ctx.document.id_index.get(ref_id)
    if target is None:
        ctx.diagnostics.error("DANGLING_REF", f"no element with id {ref_id!r}", ctx.location)
        return None
    return target


def map_anchor(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """a -> html:a with the link target on href; like a g, it hands its attributes to its children."""
    anchor = _new(node, "html:a")
    href = _href(node)
    if href is None:
        ctx.diagnostics.warning("MISSING_HREF", "anchor without a link target", ctx.location)
    else:
        anchor.attributes["href"] = href
    if node.text and node.text.strip():
        anchor.text = node.text.strip()
    _map_children(node, _group_context(node, ctx), anchor)
    return anchor


_MAPPERS: dict[str, Callable[[SvgNode, MapperContext], Optional[VmlNode]]] = {
    "svg": map_svg_root,
    "g": map_g,
    "rect": map_rect,
    "circle": map_oval,
    "ellipse": map_oval,
    "line": map_poly,
    "polyline": map_poly,
    "polygon": map_poly,
    "path": map_path,
    "text": map_text,
    "foreignObject": map_foreign_object,
    "defs": map_defs,
    "use": map_use,
    "a": map_anchor,
}

def _map_node(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    if ctx.depth > MAX_DEPTH:
        # Parsing caps the tree, but use targets stack their depth on the use's.
        if not ctx.diagnostics.has_code("TOO_DEEP"):
            message = f"elements nest deeper than {MAX_DEPTH} levels through use; the deeper ones are skipped"
            ctx.diagnostics.error("TOO_DEEP", message, ctx.location)
        return None
    mapper = _MAPPERS.get(node.tag)
    if mapper is not None:
        ctx.budget[0] -= 1
        if ctx.budget[0] >= 0:
            return mapper(node, ctx)
        if ctx.budget[0] == -1:
            budget = expansion_budget(ctx.document.elements)
            message = f"use copies map more than {budget} elements; the rest are skipped"
            ctx.diagnostics.error("EXPANSION_LIMIT", message, ctx.location)
        return None
    # Gradients and stops show through the fills that reference them, and
    # parsing already reported unknown elements; an orphaned textPath
    # (outside a text parent) is the one element skipped here.
    if node.tag == "textPath":
        ctx.diagnostics.warning(
            "SKIPPED_ELEMENT", f"element <{node.name}> has no mapping; skipped", ctx.location
        )
    return None


def _map_children(node: SvgNode, ctx: MapperContext, parent: VmlNode) -> None:
    for index, child in enumerate(node.children):
        child_ctx = ctx.at(f"/{child.name}[{index}]")
        mapped = _map_node(child, child_ctx)
        if mapped is not None:
            parent.children.append(mapped)


def map_document(
    doc: SvgDocument,
    options: Optional[ConvertOptions] = None,
    diagnostics: Optional[Diagnostics] = None,
) -> tuple[VmlNode, Diagnostics]:
    """Translate a parsed document into its VML/HTML counterpart tree."""
    options = options or ConvertOptions()
    diagnostics = diagnostics if diagnostics is not None else doc.diagnostics
    ctx = MapperContext(
        document=doc,
        root_size=RootSize(0.0, 0.0),  # map_svg_root sets it from the root's size
        options=options,
        diagnostics=diagnostics,
        budget=[expansion_budget(doc.elements)],
    )
    return map_svg_root(doc.root, ctx), diagnostics

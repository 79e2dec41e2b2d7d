"""Element-by-element translation of the SVG tree into a VML/HTML tree.

Every implemented element kind has exactly one mapper.  Each mapper makes
its output node with one constructor, `_new`, which carries the element's id
over.  Every drawn shape (rect, circle, ellipse, line, polyline, polygon,
path) then takes one paint step, `_paint`: stroke and fill become v:stroke
and v:fill children, opacity an alpha filter.  Last, the transform
simulation strategy for the element's family runs.  Group attributes are not
emitted on the group itself but distributed to the children, with child-set
values taking precedence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .diagnostics import Diagnostics, Location, LocationLike
from .numeric import format_number, parse_number
from .options import ConvertOptions

# emit_vml_path, parse_path_data, shift_commands and to_absolute no longer
# take part in mapping; they stay bound here because perfbench/spans.py
# rebinds them by name in its traced run.
from .path_data import (  # noqa: F401
    emit_segments,
    emit_vml_path,
    is_finite_path,
    parse_path_data,
    scan_path,
    shift_commands,
    to_absolute,
    vml_path,
)
from .style import (
    HORIZONTAL,
    STROKE_TABLE,
    map_opacity,
    map_stroke_attribute,
    resolve_fill_reference,
)
from .svg_dom import Point, SvgDocument, SvgNode, parse_length, parse_points, parse_view_box
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

# Presentation attributes a group pushes down to its descendants.
INHERITED_ATTRIBUTES = ("fill", "stroke", "stroke-width", "opacity")


@dataclass
class VmlNode:
    """Output tree node: a VML or plain HTML element."""

    tag: str
    attributes: dict[str, str] = field(default_factory=dict)
    style: dict[str, str] = field(default_factory=dict)
    children: list["VmlNode"] = field(default_factory=list)
    text: Optional[str] = None
    tail: Optional[str] = None

    def find(self, tag: str) -> Optional["VmlNode"]:
        for child in self.children:
            if child.tag == tag:
                return child
        return None


@dataclass(frozen=True)
class MapperContext:
    document: SvgDocument
    root_size: RootSize
    options: ConvertOptions
    diagnostics: Diagnostics
    inherited: dict[str, str] = field(default_factory=dict)
    chain: Chain = EMPTY_CHAIN
    ref_stack: frozenset = frozenset()
    location: LocationLike = "svg"

    def at(self, step: str) -> "MapperContext":
        """The context for a child element; step is "/name[index]"."""
        return self.derive(location=Location(self.location, step))

    def derive(self, **changes) -> "MapperContext":
        """A copy with the given fields changed.

        Unlike dataclasses.replace, this skips __init__, which costs more
        than the copy itself on the per-child path.
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


def _effective(node: SvgNode, ctx: MapperContext, name: str) -> Optional[str]:
    own = node.attr(name)
    return own if own is not None else ctx.inherited.get(name)


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


def _write_style(ctx: MapperContext, mapped: VmlNode, key: str, value: float) -> float:
    """Set a style length; returns it as written, rounded to the precision."""
    text = mapped.style[key] = _fmt(ctx, value)
    return float(text)


def _apply_box_style(node: SvgNode, ctx: MapperContext, mapped: VmlNode) -> ShapeBox:
    """x, y, width and height become left, top, width and height.

    Returns the box as written, with 0.0 where a value is absent.
    """
    written = []
    for attr_name, style_name in (("x", "left"), ("y", "top"), ("width", "width"), ("height", "height")):
        value = _length(ctx, node, attr_name)
        written.append(0.0 if value is None else _write_style(ctx, mapped, style_name, value))
    return ShapeBox(*written)


def _append_filter(mapped: VmlNode, filter_text: str) -> None:
    existing = mapped.style.get("filter")
    mapped.style["filter"] = f"{existing} {filter_text}" if existing else filter_text


def _report_fill_opacity(node: SvgNode, ctx: MapperContext) -> None:
    if node.attr("fill-opacity") is not None:
        ctx.diagnostics.warning(
            "UNSUPPORTED_ATTRIBUTE", "fill-opacity has no VML mapping and is ignored", ctx.location
        )


def _apply_opacity(node: SvgNode, ctx: MapperContext, mapped: VmlNode) -> None:
    _report_fill_opacity(node, ctx)
    raw = _effective(node, ctx, "opacity")
    if raw is None:
        return
    try:
        value = parse_number(raw)
    except ValueError:
        ctx.diagnostics.warning("BAD_ATTRIBUTE", f"unparseable opacity {raw!r}", ctx.location)
        return
    alpha = map_opacity(value, ctx.diagnostics, ctx.location)
    _append_filter(
        mapped, f"progid:DXImageTransform.Microsoft.Alpha(opacity={_fmt(ctx, alpha)})"
    )


def _paint(node: SvgNode, ctx: MapperContext, shape: VmlNode) -> None:
    """Map stroke, fill and opacity onto a drawn shape.

    Stroke and fill features become v:stroke / v:fill children: the node's
    own attributes run first in document order, then inherited values fill
    the gaps; at most one v:stroke and one v:fill child result.  Opacity
    comes last, as an alpha filter.
    """
    items = [(n, v) for n, v in node.attributes.items() if n in STROKE_TABLE or n == "fill"]
    for name in ("fill", "stroke", "stroke-width"):
        if name in ctx.inherited and node.attr(name) is None:
            items.append((name, ctx.inherited[name]))

    stroke_child: Optional[VmlNode] = None
    for name, value in items:
        if name == "fill":
            _apply_fill(value, ctx, shape)
            continue
        mapped = map_stroke_attribute(name, value, ctx.options.precision)
        if mapped is None:  # a bad stroke-width, parsed again for its diagnostic
            parse_length(value, ctx.diagnostics, _attribute_location(ctx, name))
            continue
        if stroke_child is None:
            stroke_child = VmlNode("v:stroke")
            shape.children.append(stroke_child)
        target, mapped_value = mapped
        stroke_child.attributes[target] = mapped_value

    _apply_opacity(node, ctx, shape)


def _apply_fill(value: str, ctx: MapperContext, shape: VmlNode) -> None:
    if value == "none":
        shape.attributes["filled"] = "f"
        return
    fill = {"color": value}
    if value.strip().startswith("url("):
        gradient = resolve_fill_reference(value, ctx.document, ctx.diagnostics, ctx.location)
        if gradient is None:
            return
        # Gradient axis angle convention borrowed from the common SVG shims:
        # 270 runs left-to-right, 180 top-to-bottom.
        angle = "270" if gradient.direction == HORIZONTAL else "180"
        fill = dict(type="gradient", color=gradient.color_start, color2=gradient.color_end, angle=angle)
    shape.children.append(VmlNode("v:fill", fill))


# --- transform simulation ----------------------------------------------------

_EMPTY_BOX = ShapeBox(0.0, 0.0, 0.0, 0.0)


def _place(node: SvgNode, ctx: MapperContext, box: ShapeBox) -> Optional[Placement]:
    chain = _effective_chain(node, ctx)
    if not chain.ops:
        return None
    strategy = STRATEGY_BY_TAG[node.tag]
    return place(strategy, chain, box, ctx.root_size, ctx.options.precision, ctx.diagnostics, ctx.location)


def _finite(ctx: MapperContext, code: str, message: str, *values: float) -> bool:
    """True when every value is finite; otherwise reports code and message."""
    if all(map(math.isfinite, values)):
        return True
    ctx.diagnostics.error(code, message, ctx.location)
    return False


def _apply_box_transform(node: SvgNode, ctx: MapperContext, mapped: VmlNode, box: ShapeBox) -> None:
    """Write the element's placement: its position, skew child or matrix filter."""
    placed = _place(node, ctx, box)
    if placed is None:
        return
    if placed.origin is not None:
        mapped.style["left"], mapped.style["top"] = (_fmt(ctx, value) for value in placed.origin)
        # keep geometry keys ahead of decorations
        for key in ("width", "height", "filter"):
            if key in mapped.style:
                mapped.style[key] = mapped.style.pop(key)
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

    if width is not None:
        group.style["width"] = _fmt(ctx, width)
    if height is not None:
        group.style["height"] = _fmt(ctx, height)
    if node is ctx.document.root:
        # The skew-path offset rule reads the root size: width and height,
        # else the viewBox size, else 0.
        box_width, box_height = (box.width, box.height) if box is not None else (0.0, 0.0)
        root_size = RootSize(box_width if width is None else width, box_height if height is None else height)
        ctx = ctx.derive(root_size=root_size)
    _map_children(node, ctx, group)
    return group


def map_g(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """g -> v:group; inheritable attributes distribute to the children."""
    group = _new(node, "v:group")
    _report_fill_opacity(node, ctx)
    inherited = dict(ctx.inherited)
    for name in INHERITED_ATTRIBUTES:
        value = node.attr(name)
        if value is not None:
            inherited[name] = value
    child_ctx = ctx.derive(inherited=inherited, chain=_effective_chain(node, ctx))
    _map_children(node, child_ctx, group)
    return group


def map_rect(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """rect -> v:roundrect; rx/ry become the arcsize rounding ratio."""
    width = _length(ctx, node, "width")
    height = _length(ctx, node, "height")
    if width is None or height is None or width <= 0 or height <= 0:
        ctx.diagnostics.warning(
            "DEGENERATE_SHAPE", "rect needs positive width and height; skipped", ctx.location
        )
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

    if x is not None:
        shape.style["left"] = _fmt(ctx, x)
    if y is not None:
        shape.style["top"] = _fmt(ctx, y)
    shape.style["width"] = _fmt(ctx, width)
    shape.style["height"] = _fmt(ctx, height)

    _paint(node, ctx, shape)
    _apply_box_transform(node, ctx, shape, ShapeBox(x or 0.0, y or 0.0, width, height))
    return shape


def _map_oval(node: SvgNode, ctx: MapperContext, rx: float, ry: float) -> Optional[VmlNode]:
    if rx < 0 or ry < 0:
        ctx.diagnostics.error("DEGENERATE_SHAPE", "negative radius", ctx.location)
        return None
    cx = _length(ctx, node, "cx") or 0.0
    cy = _length(ctx, node, "cy") or 0.0
    left, top = cx - rx, cy - ry
    width, height = 2 * rx, 2 * ry
    overflow = "box overflows to a non-finite value; skipped"
    if not _finite(ctx, "DEGENERATE_SHAPE", overflow, left, top, width, height):
        return None

    oval = _new(node, "v:oval")
    oval.style["left"] = _fmt(ctx, left)
    oval.style["top"] = _fmt(ctx, top)
    oval.style["width"] = _fmt(ctx, width)
    oval.style["height"] = _fmt(ctx, height)
    _paint(node, ctx, oval)
    _apply_box_transform(node, ctx, oval, ShapeBox(left, top, width, height))
    return oval


def map_circle(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """circle -> v:oval with left/top/width/height derived from cx, cy, r."""
    r = _length(ctx, node, "r")
    if r is None:
        ctx.diagnostics.warning("DEGENERATE_SHAPE", "circle without r; skipped", ctx.location)
        return None
    return _map_oval(node, ctx, r, r)


def map_ellipse(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """ellipse -> v:oval with left/top/width/height derived from cx, cy, rx, ry."""
    rx = _length(ctx, node, "rx")
    ry = _length(ctx, node, "ry")
    if rx is None or ry is None:
        ctx.diagnostics.warning(
            "DEGENERATE_SHAPE", "ellipse without rx/ry; skipped", ctx.location
        )
        return None
    return _map_oval(node, ctx, rx, ry)


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
        chain.report_singular(ctx.diagnostics, ctx.location)
        # The points as read are finite, so only the transform can overflow.
        path = _points_path(recalc_points(chain.ctm, points), closed, ctx.options.precision)
        if is_finite_path(path):
            return _path_shape(node, ctx, path)
        ctx.diagnostics.error("BAD_TRANSFORM", OVERFLOW_IGNORED, ctx.location)
    return _path_shape(node, ctx, _points_path(points, closed, ctx.options.precision))


def _points_path(points: list[Point], closed: bool, precision: int) -> str:
    """The VML path through the points, closed for a polygon."""
    parts = [("m", points[0])]
    parts.extend(("l", point) for point in points[1:])
    if closed:
        parts.append(("x", ()))
    return emit_segments(parts, precision)


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
    segments = scan_path(d, ctx.diagnostics, _attribute_location(ctx, "d"))
    if ctx.diagnostics.errors_since(mark):
        return None
    if not segments:
        ctx.diagnostics.warning("DEGENERATE_SHAPE", "path with empty d; skipped", ctx.location)
        return None

    placed = _place(node, ctx, _EMPTY_BOX)
    origin, skew = (placed.origin, placed.skew) if placed is not None else (None, None)
    shape = _path_shape(node, ctx, vml_path(segments, ctx.options.precision, *(origin or (0.0, 0.0))))
    if shape is not None and skew is not None:
        shape.children.append(VmlNode("v:skew", skew))
    return shape


def map_text(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """text -> v:textbox (or the referenced shape when wrapping a textPath)."""
    text_path = next((child for child in node.children if child.tag == "textPath"), None)
    if text_path is not None:
        return map_text_path(text_path, ctx, node)

    box = _new(node, "v:textbox")
    x = _length(ctx, node, "x")
    y = _length(ctx, node, "y")
    if x is not None:
        box.style["left"] = _fmt(ctx, x)
    top = 0.0
    if y is not None:
        font_size = _length(ctx, node, "font-size")
        if font_size is None:
            font_size = 16.0
            ctx.diagnostics.warning(
                "DEFAULT_FONT_SIZE", "text without font-size; assuming 16", ctx.location
            )
        top = y - font_size
        if not _finite(ctx, "DEGENERATE_SHAPE", "top overflows to a non-finite value; skipped", top):
            return None
        top = _write_style(ctx, box, "top", top)
    if node.text and node.text.strip():
        box.text = node.text.strip()
    _apply_opacity(node, ctx, box)
    _apply_box_transform(node, ctx, box, ShapeBox(x or 0.0, top, 0.0, 0.0))
    return box


def map_text_path(node: SvgNode, ctx: MapperContext, parent: SvgNode) -> Optional[VmlNode]:
    """textPath -> the referenced path's v:shape, augmented for text-on-path."""
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    if target.tag != "path":
        ctx.diagnostics.error(
            "DANGLING_REF", "textPath reference is not a path element", ctx.location
        )
        return None

    shape = map_path(target, ctx)
    if shape is None:
        return None
    path_flag = VmlNode("v:path")
    path_flag.attributes["textpathok"] = "t"
    shape.children.append(path_flag)

    text_path = VmlNode("v:textpath")
    text_path.attributes["on"] = "t"
    text_path.attributes["string"] = (node.text or "").strip()
    font_tokens = []
    font_size = _length(ctx, parent, "font-size")
    if font_size is not None:
        font_tokens.append(f"FONT-SIZE:{_fmt(ctx, font_size)}")
    family = parent.attr("font-family")
    if family is not None:
        font_tokens.append(f"FONT-FAMILY:{family}")
    if font_tokens:
        text_path.attributes["style"] = ";".join(font_tokens)
    shape.children.append(text_path)
    _apply_box_transform(node, ctx, shape, _EMPTY_BOX)
    return shape


def map_foreign_object(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """foreignObject -> v:textbox carrying its markup through unchanged."""
    box = _new(node, "v:textbox")
    written = _apply_box_style(node, ctx, box)
    if node.text and node.text.strip():
        box.text = node.text
    for child in node.children:
        box.children.append(_map_verbatim(child))
    _apply_opacity(node, ctx, box)
    _apply_box_transform(node, ctx, box, written)
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
    """use -> html:div containing the referenced element, mapped again in place."""
    div = _new(node, "html:div")
    _apply_box_style(node, ctx, div)

    if _href(node) is None:
        ctx.diagnostics.warning("MISSING_HREF", "use without a reference", ctx.location)
        return div
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    ref_id = target.attr("id") or ""
    child_ctx = ctx.derive(ref_stack=ctx.ref_stack | {ref_id})
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
    """a -> html:a with the link target on href."""
    anchor = _new(node, "html:a")
    href = _href(node)
    if href is None:
        ctx.diagnostics.warning("MISSING_HREF", "anchor without a link target", ctx.location)
    else:
        anchor.attributes["href"] = href
    if node.text and node.text.strip():
        anchor.text = node.text.strip()
    _map_children(node, ctx, anchor)
    return anchor


_MAPPERS: dict[str, Callable[[SvgNode, MapperContext], Optional[VmlNode]]] = {
    "svg": map_svg_root,
    "g": map_g,
    "rect": map_rect,
    "circle": map_circle,
    "ellipse": map_ellipse,
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
    mapper = _MAPPERS.get(node.tag)
    if mapper is not None:
        return mapper(node, ctx)
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
    )
    return map_svg_root(doc.root, ctx), diagnostics

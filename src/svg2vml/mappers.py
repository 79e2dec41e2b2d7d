"""Element-by-element translation of the SVG tree into a VML/HTML tree.

Every implemented element kind has exactly one mapper.  Shared behavior runs
as passes over the mapped node: id preservation, presentation attributes
(stroke/fill/opacity), and the transform simulation strategy for the
element's family.  Group attributes are not emitted on the group itself but
distributed to the children, with child-set values taking precedence.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

from .diagnostics import Diagnostics
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
from .transform import (
    IDENTITY,
    MATRIX_FILTER,
    SKEW_PATH,
    SKEW_SHAPE,
    STRATEGY_BY_TAG,
    Offset,
    RootSize,
    ShapeBox,
    TransformMatrix,
    TransformOp,
    check_support,
    compose_ctm,
    compute_offset,
    matrix_filter_params,
    offset_for_linear_path,
    op_to_matrix,
    parse_transform_list,
    recalc_points,
    skew_matrix_for_path,
    skew_matrix_for_shape,
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
    inherited_ops: tuple[TransformOp, ...] = ()
    ref_stack: frozenset = frozenset()
    location: str = "svg"

    def at(self, location: str) -> "MapperContext":
        return dataclasses.replace(self, location=location)


def _fmt(ctx: MapperContext, value: float) -> str:
    return format_number(value, ctx.options.precision)


def _length(ctx: MapperContext, node: SvgNode, name: str) -> Optional[float]:
    raw = node.attr(name)
    if raw is None:
        return None
    return parse_length(raw, ctx.diagnostics, f"{ctx.location}@{name}")


def _effective(node: SvgNode, ctx: MapperContext, name: str) -> Optional[str]:
    own = node.attr(name)
    return own if own is not None else ctx.inherited.get(name)


def _effective_transform_ops(node: SvgNode, ctx: MapperContext) -> list[TransformOp]:
    own_raw = node.attr("transform")
    own = (
        parse_transform_list(own_raw, ctx.diagnostics, f"{ctx.location}@transform")
        if own_raw is not None
        else []
    )
    return list(ctx.inherited_ops) + own


# --- shared passes -----------------------------------------------------------


def _apply_id(node: SvgNode, mapped: VmlNode) -> None:
    node_id = node.attr("id")
    if node_id is not None:
        mapped.attributes["id"] = node_id


def _append_filter(mapped: VmlNode, filter_text: str) -> None:
    existing = mapped.style.get("filter")
    mapped.style["filter"] = f"{existing} {filter_text}" if existing else filter_text


def _apply_opacity(node: SvgNode, ctx: MapperContext, mapped: VmlNode) -> None:
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


def _apply_presentation(node: SvgNode, ctx: MapperContext, shape: VmlNode) -> None:
    """Map stroke and fill features onto v:stroke / v:fill children.

    The node's own attributes run first in document order, then inherited
    values fill the gaps; at most one v:stroke and one v:fill child result.
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
        if stroke_child is None:
            stroke_child = VmlNode("v:stroke")
            shape.children.append(stroke_child)
        target, mapped_value = map_stroke_attribute(name, value, ctx.options.precision)
        stroke_child.attributes[target] = mapped_value

    if node.attr("fill-opacity") is not None:
        ctx.diagnostics.warning(
            "UNSUPPORTED_ATTRIBUTE", "fill-opacity has no VML mapping and is ignored", ctx.location
        )


def _apply_fill(value: str, ctx: MapperContext, shape: VmlNode) -> None:
    if value == "none":
        shape.attributes["filled"] = "f"
        return
    if value.strip().startswith("url("):
        gradient = resolve_fill_reference(value, ctx.document, ctx.diagnostics, ctx.location)
        if gradient is None:
            return
        fill = VmlNode("v:fill")
        fill.attributes["type"] = "gradient"
        fill.attributes["color"] = gradient.color_start
        fill.attributes["color2"] = gradient.color_end
        # Gradient axis angle convention borrowed from the common SVG shims:
        # 270 runs left-to-right, 180 top-to-bottom.
        fill.attributes["angle"] = "270" if gradient.direction == HORIZONTAL else "180"
        shape.children.append(fill)
        return
    fill = VmlNode("v:fill")
    fill.attributes["color"] = value
    shape.children.append(fill)


# --- transform simulation ----------------------------------------------------


def _linear_part(m: TransformMatrix) -> tuple[float, float, float, float]:
    return (m.a, m.b, m.c, m.d)


def _offset_attr(ctx: MapperContext, offset: Offset) -> str:
    # The correction moves the shape up and left by (dx, dy); the skew
    # offset slot applies additively, hence the sign flip.
    return f"{_fmt(ctx, -offset.dx)}px,{_fmt(ctx, -offset.dy)}px"


def _set_position(ctx: MapperContext, mapped: VmlNode, left: float, top: float) -> None:
    mapped.style["left"] = _fmt(ctx, left)
    mapped.style["top"] = _fmt(ctx, top)
    # keep geometry keys ahead of decorations
    for key in ("width", "height", "filter"):
        if key in mapped.style:
            mapped.style[key] = mapped.style.pop(key)


def _shape_offset_from_linear(m: TransformMatrix, box: ShapeBox) -> Offset:
    return Offset(m.a * box.width + m.c * box.y, m.b * box.x + m.d * box.height)


def _apply_box_transform(
    node: SvgNode, ctx: MapperContext, mapped: VmlNode, box: ShapeBox, strategy: str
) -> None:
    """Simulate the element's transform via skew element or matrix filter."""
    ops = _effective_transform_ops(node, ctx)
    if not ops:
        return
    unsupported = check_support(strategy, ops)
    if unsupported is not None:
        ctx.diagnostics.error(unsupported.code, unsupported.message, ctx.location)
        return

    if len(ops) == 1 and ops[0].name == "rotate":
        _apply_rotation(ops[0], ctx, mapped, box, strategy)
        return
    if any(op.name in ("matrix", "rotate") for op in ops):
        ctx.diagnostics.error(
            "UNSUPPORTED_TRANSFORM",
            "no offset rule for this transform on " + strategy,
            ctx.location,
        )
        return

    ctm = compose_ctm(ops, ctx.diagnostics, ctx.location)
    left, top = box.x + ctm.e, box.y + ctm.f
    if (ctm.e, ctm.f) != (0.0, 0.0):
        _set_position(ctx, mapped, left, top)
    if _linear_part(ctm) == _linear_part(IDENTITY):
        return

    offset = _shape_offset_from_linear(ctm, box)
    if strategy == SKEW_SHAPE:
        skew = VmlNode("v:skew")
        skew.attributes["on"] = "t"
        skew.attributes["matrix"] = skew_matrix_for_shape(ctm, ctx.options.precision)
        skew.attributes["offset"] = _offset_attr(ctx, offset)
        mapped.children.append(skew)
    else:
        _append_filter(mapped, _matrix_filter_text(ctx, ctm))
        _set_position(ctx, mapped, left - offset.dx, top - offset.dy)


def _apply_rotation(
    op: TransformOp, ctx: MapperContext, mapped: VmlNode, box: ShapeBox, strategy: str
) -> None:
    rotation = op_to_matrix(TransformOp("rotate", op.args[:1]), ctx.diagnostics, ctx.location)
    offset = compute_offset(op, box, ctx.root_size, strategy, ctx.diagnostics, ctx.location)
    if strategy == SKEW_SHAPE:
        if len(op.args) == 3:
            # Rotation about a point: coordinates are pre-shifted to the
            # rotation center; the re-shift is folded into the offset.
            _set_position(ctx, mapped, box.x - op.args[1], box.y - op.args[2])
        skew = VmlNode("v:skew")
        skew.attributes["on"] = "t"
        skew.attributes["matrix"] = skew_matrix_for_shape(rotation, ctx.options.precision)
        skew.attributes["offset"] = _offset_attr(ctx, offset)
        mapped.children.append(skew)
    else:
        _append_filter(mapped, _matrix_filter_text(ctx, rotation))
        _set_position(ctx, mapped, box.x - offset.dx, box.y - offset.dy)


def _matrix_filter_text(ctx: MapperContext, m: TransformMatrix) -> str:
    params = matrix_filter_params(m)
    return (
        "progid:DXImageTransform.Microsoft.Matrix("
        f"M11={_fmt(ctx, params.m11)}, M12={_fmt(ctx, params.m12)}, "
        f"M21={_fmt(ctx, params.m21)}, M22={_fmt(ctx, params.m22)}, "
        "SizingMethod='auto expand')"
    )


def apply_transform(node: SvgNode, ctx: MapperContext, mapped: VmlNode) -> VmlNode:
    """Apply the element's effective transform to an already-mapped node.

    Covers the skew-element and matrix-filter strategies; point-based
    elements fold the transform into their coordinates while mapping, and
    groups distribute it to their children instead.
    """
    strategy = STRATEGY_BY_TAG.get(node.tag)
    if strategy in (SKEW_SHAPE, MATRIX_FILTER):
        box = ShapeBox(
            _style_value(mapped, "left"),
            _style_value(mapped, "top"),
            _style_value(mapped, "width"),
            _style_value(mapped, "height"),
        )
        _apply_box_transform(node, ctx, mapped, box, strategy)
    return mapped


def _style_value(mapped: VmlNode, key: str) -> float:
    raw = mapped.style.get(key)
    if raw is None:
        return 0.0
    try:
        return parse_number(raw)
    except ValueError:
        return 0.0


# --- element mappers ----------------------------------------------------------


def map_svg_root(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """svg -> v:group; viewBox becomes coordorigin/coordsize."""
    group = VmlNode("v:group")
    _apply_id(node, group)
    width = _length(ctx, node, "width")
    height = _length(ctx, node, "height")

    raw_box = node.attr("viewBox")
    box = (
        parse_view_box(raw_box, ctx.diagnostics, f"{ctx.location}@viewBox")
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
    _map_children(node, ctx, group)
    return group


def map_g(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """g -> v:group; inheritable attributes distribute to the children."""
    group = VmlNode("v:group")
    _apply_id(node, group)
    inherited = dict(ctx.inherited)
    for name in INHERITED_ATTRIBUTES:
        value = node.attr(name)
        if value is not None:
            inherited[name] = value
    child_ctx = dataclasses.replace(
        ctx,
        inherited=inherited,
        inherited_ops=tuple(_effective_transform_ops(node, ctx)),
    )
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

    shape = VmlNode("v:roundrect")
    _apply_id(node, shape)
    arcsize: Optional[float] = None
    for name, value in node.attributes.items():
        if name == "rx":
            radius = parse_length(value, ctx.diagnostics, f"{ctx.location}@rx")
            if radius is not None:
                arcsize = radius / (width / 2)
        elif name == "ry":
            radius = parse_length(value, ctx.diagnostics, f"{ctx.location}@ry")
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

    _apply_presentation(node, ctx, shape)
    _apply_opacity(node, ctx, shape)
    _apply_box_transform(node, ctx, shape, ShapeBox(x or 0.0, y or 0.0, width, height), SKEW_SHAPE)
    return shape


def _map_oval(node: SvgNode, ctx: MapperContext, rx: float, ry: float) -> Optional[VmlNode]:
    if rx < 0 or ry < 0:
        ctx.diagnostics.error("DEGENERATE_SHAPE", "negative radius", ctx.location)
        return None
    cx = _length(ctx, node, "cx") or 0.0
    cy = _length(ctx, node, "cy") or 0.0
    left, top = cx - rx, cy - ry
    width, height = 2 * rx, 2 * ry

    oval = VmlNode("v:oval")
    _apply_id(node, oval)
    oval.style["left"] = _fmt(ctx, left)
    oval.style["top"] = _fmt(ctx, top)
    oval.style["width"] = _fmt(ctx, width)
    oval.style["height"] = _fmt(ctx, height)
    _apply_presentation(node, ctx, oval)
    _apply_opacity(node, ctx, oval)
    _apply_box_transform(node, ctx, oval, ShapeBox(left, top, width, height), SKEW_SHAPE)
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

    ops = _effective_transform_ops(node, ctx)
    if ops:
        ctm = compose_ctm(ops, ctx.diagnostics, ctx.location)
        points = recalc_points(ctm, points)

    parts = [("m", points[0])]
    parts.extend(("l", point) for point in points[1:])
    if node.tag == "polygon":
        parts.append(("x", ()))
    path = _finite_path(ctx, emit_segments(parts, ctx.options.precision), node.tag)
    if path is None:
        return None

    shape = VmlNode("v:shape")
    _apply_id(node, shape)
    shape.attributes["path"] = path
    _apply_presentation(node, ctx, shape)
    _apply_opacity(node, ctx, shape)
    return shape


def _finite_path(ctx: MapperContext, path: str, tag: str) -> Optional[str]:
    if is_finite_path(path):
        return path
    ctx.diagnostics.error(
        "BAD_PATH", f"{tag} coordinates overflow to a non-finite value; skipped", ctx.location
    )
    return None


def map_path(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """path -> v:shape; the d attribute is normalized to absolute commands."""
    d = node.attr("d")
    if d is None:
        ctx.diagnostics.warning("DEGENERATE_SHAPE", "path without d; skipped", ctx.location)
        return None
    mark = len(ctx.diagnostics)
    segments = scan_path(d, ctx.diagnostics, f"{ctx.location}@d")
    if ctx.diagnostics.errors_since(mark):
        return None
    if not segments:
        ctx.diagnostics.warning("DEGENERATE_SHAPE", "path with empty d; skipped", ctx.location)
        return None

    shift = (0.0, 0.0)
    skew_child: Optional[VmlNode] = None
    ops = _effective_transform_ops(node, ctx)
    if ops:
        unsupported = check_support(SKEW_PATH, ops)
        if unsupported is not None:
            ctx.diagnostics.error(unsupported.code, unsupported.message, ctx.location)
        elif any(op.name == "matrix" for op in ops):
            ctx.diagnostics.error(
                "UNSUPPORTED_TRANSFORM", "matrix() has no offset rule for skew-path", ctx.location
            )
        else:
            if all(op.name in ("scale", "translate") for op in ops):
                ctm = compose_ctm(ops, ctx.diagnostics, ctx.location)
                shift = (ctm.e, ctm.f)
            else:
                # a single rotate/skew: position corrections come from the
                # root element size, any translation component is dropped
                ctm = op_to_matrix(ops[0], ctx.diagnostics, ctx.location)
            if _linear_part(ctm) != _linear_part(IDENTITY):
                offset = offset_for_linear_path(ctm, ctx.root_size)
                skew_child = VmlNode("v:skew")
                skew_child.attributes["on"] = "t"
                skew_child.attributes["matrix"] = skew_matrix_for_path(ctm, ctx.options.precision)
                skew_child.attributes["offset"] = _offset_attr(ctx, offset)

    path = _finite_path(ctx, vml_path(segments, ctx.options.precision, *shift), "path")
    if path is None:
        return None
    shape = VmlNode("v:shape")
    _apply_id(node, shape)
    shape.attributes["path"] = path
    _apply_presentation(node, ctx, shape)
    _apply_opacity(node, ctx, shape)
    if skew_child is not None:
        shape.children.append(skew_child)
    return shape


def map_text(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """text -> v:textbox (or the referenced shape when wrapping a textPath)."""
    text_path = next((child for child in node.children if child.tag == "textPath"), None)
    if text_path is not None:
        return map_text_path(text_path, ctx, node)

    box = VmlNode("v:textbox")
    _apply_id(node, box)
    x = _length(ctx, node, "x")
    y = _length(ctx, node, "y")
    if x is not None:
        box.style["left"] = _fmt(ctx, x)
    if y is not None:
        font_size = _length(ctx, node, "font-size")
        if font_size is None:
            font_size = 16.0
            ctx.diagnostics.warning(
                "DEFAULT_FONT_SIZE", "text without font-size; assuming 16", ctx.location
            )
        box.style["top"] = _fmt(ctx, y - font_size)
    if node.text and node.text.strip():
        box.text = node.text.strip()
    _apply_opacity(node, ctx, box)
    _apply_box_transform(
        node,
        ctx,
        box,
        ShapeBox(x or 0.0, _style_value(box, "top"), 0.0, 0.0),
        MATRIX_FILTER,
    )
    return box


def map_text_path(
    node: SvgNode, ctx: MapperContext, parent: Optional[SvgNode] = None
) -> Optional[VmlNode]:
    """textPath -> the referenced path's v:shape, augmented for text-on-path."""
    if parent is None or parent.tag != "text":
        ctx.diagnostics.error(
            "DANGLING_REF", "textPath must sit inside a text element", ctx.location
        )
        return None
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    if target.tag != "path":
        ctx.diagnostics.error(
            "DANGLING_REF", "textPath reference is not a path element", ctx.location
        )
        return None

    shape = map_path(copy.deepcopy(target), ctx)
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
    _apply_box_transform(
        node,
        ctx,
        shape,
        ShapeBox(0.0, 0.0, 0.0, 0.0),
        MATRIX_FILTER,
    )
    return shape


def map_foreign_object(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """foreignObject -> v:textbox carrying its markup through unchanged."""
    box = VmlNode("v:textbox")
    _apply_id(node, box)
    for attr_name, style_name in (("x", "left"), ("y", "top"), ("width", "width"), ("height", "height")):
        value = _length(ctx, node, attr_name)
        if value is not None:
            box.style[style_name] = _fmt(ctx, value)
    if node.text and node.text.strip():
        box.text = node.text
    for child in node.children:
        box.children.append(_map_verbatim(child))
    _apply_opacity(node, ctx, box)
    _apply_box_transform(
        node,
        ctx,
        box,
        ShapeBox(
            _style_value(box, "left"),
            _style_value(box, "top"),
            _style_value(box, "width"),
            _style_value(box, "height"),
        ),
        MATRIX_FILTER,
    )
    return box


def _map_verbatim(node: SvgNode) -> VmlNode:
    mapped = VmlNode(node.name, attributes=dict(node.attributes), text=node.text, tail=node.tail)
    mapped.children = [_map_verbatim(child) for child in node.children]
    return mapped


def map_defs(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """defs -> hidden html:div; the content only shows through references."""
    div = VmlNode("html:div")
    _apply_id(node, div)
    div.style["visibility"] = "hidden"
    _map_children(node, ctx, div)
    return div


def map_use(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    """use -> html:div containing a mapped copy of the referenced element."""
    div = VmlNode("html:div")
    _apply_id(node, div)
    for attr_name, style_name in (("x", "left"), ("y", "top"), ("width", "width"), ("height", "height")):
        value = _length(ctx, node, attr_name)
        if value is not None:
            div.style[style_name] = _fmt(ctx, value)

    if node.attr("xlink:href") is None and node.attr("href") is None:
        ctx.diagnostics.warning("MISSING_HREF", "use without a reference", ctx.location)
        return div
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    ref_id = target.attr("id") or ""
    child_ctx = dataclasses.replace(ctx, ref_stack=ctx.ref_stack | {ref_id})
    mapped = _map_node(copy.deepcopy(target), child_ctx)
    if mapped is not None:
        div.children.append(mapped)
    return div


def _resolve_reference(node: SvgNode, ctx: MapperContext) -> Optional[SvgNode]:
    raw = node.attr("xlink:href") or node.attr("href")
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
    anchor = VmlNode("html:a")
    _apply_id(node, anchor)
    href = node.attr("xlink:href") or node.attr("href")
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

# Reference-only elements realized through the attributes that point at them.
# An orphaned textPath (outside a text parent) falls through to the
# skipped-element warning instead.
_SILENT_TAGS = frozenset({"linearGradient", "stop"})


def _map_node(node: SvgNode, ctx: MapperContext) -> Optional[VmlNode]:
    if node.tag in _SILENT_TAGS:
        return None
    mapper = _MAPPERS.get(node.tag)
    if mapper is None:
        ctx.diagnostics.warning(
            "SKIPPED_ELEMENT", f"element <{node.name}> has no mapping; skipped", ctx.location
        )
        return None
    return mapper(node, ctx)


def _map_children(node: SvgNode, ctx: MapperContext, parent: VmlNode) -> None:
    for index, child in enumerate(node.children):
        child_ctx = ctx.at(f"{ctx.location}/{child.name}[{index}]")
        mapped = _map_node(child, child_ctx)
        if mapped is not None:
            parent.children.append(mapped)


def _root_size(doc: SvgDocument) -> RootSize:
    # Probing only; map_svg_root re-parses these attributes and owns the
    # user-visible diagnostics for them.
    scratch = Diagnostics()
    width = doc.root.attr("width")
    height = doc.root.attr("height")
    w = parse_length(width, scratch) if width is not None else None
    h = parse_length(height, scratch) if height is not None else None
    if w is None or h is None:
        raw_box = doc.root.attr("viewBox")
        box = parse_view_box(raw_box, scratch) if raw_box is not None else None
        if box is not None:
            w = box.width if w is None else w
            h = box.height if h is None else h
    return RootSize(w or 0.0, h or 0.0)


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
        root_size=_root_size(doc),
        options=options,
        diagnostics=diagnostics,
    )
    return map_svg_root(doc.root, ctx), diagnostics

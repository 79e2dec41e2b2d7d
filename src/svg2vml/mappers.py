"""Element-by-element translation of the SVG tree into a VML/HTML tree.

Every implemented element kind has exactly one mapper.  Each mapper makes its
output node with one constructor, `_new`, which carries the element's id
over, and writes its left, top, width and height with one box writer,
`_write_box`.  Every drawn shape (rect, circle, ellipse, line, polyline,
polygon, path) then takes one paint step, `_paint`: stroke and fill become a
v:stroke and a v:fill, opacity an alpha filter.  Last, the transform
simulation strategy for the element's family runs; its offset rules read the
box back from the style as written, rounded to the precision, and the moved
origin goes through `_write_box` again.  Children with no children of their
own (v:fill, v:stroke, v:skew, v:path, v:textpath) are written on the spot
by the emitter's `vml_leaf`, into the node's `leaves`.  The paint and
transform of a group (a g or an a) are not emitted on the group itself: its
context carries them down, parsed once (`style.Paint`, `transform.Chain`),
and each element extends them by its own values, which take precedence.  The
HTML content of a foreignObject is never mapped: its v:textbox holds the
parsed nodes.

Each child is mapped under its own context, which `MapperContext.at` copies
slot by slot from its parent's; the location it adds keeps the child's name
and index, and is rendered only if a diagnostic is reported there.  What the
whole map_document call shares lives once, in its `Conversion`.

VML has no reference mechanism, so a use holds a copy of its target, mapped
under the use's context.  Each child of a defs and each use target goes
through one helper, `_map_copy`: within one map_document call, a target
already mapped under the same chain and paint is appended again, not mapped
again, where that copy is exact.  The mapped tree may therefore hold one node
at several places; the emitter only reads it.  The same call resolves each
gradient fill once (`style.Paint.extend`) and parses the d of each path with
an id once (`map_path`), the only paths a textPath or a use can name.  Each
memo lives in the `Conversion` and keeps only what reported nothing, so a
fault is reported again at each place it recurs.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .diagnostics import Diagnostics, Location, LocationLike
from .emitter import vml_leaf
from .numeric import format_number, format_numbers, read_number
from .options import ConvertOptions
from .path_data import emit_vml_path, is_finite_path, parse_path_data, to_absolute

# resolve_fill_reference takes no part in mapping here, where style.Paint
# resolves fill references; it stays bound because perfbench/spans.py
# rebinds it by name.
from .style import (  # noqa: F401
    INHERITED,
    NO_PAINT,
    NONE_FLAGS,
    STROKE_TABLE,
    Paint,
    alpha_filter,
    resolve_fill_reference,
)
from .svg_dom import (
    MAX_DEPTH,
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
    compose_ctm,
    parse_transform_list,
    place,
    recalc_points,
)

# Not called in mapping; bound because perfbench/spans.py rebinds
# shift_commands by name in this module during its traced run.
shift_commands = to_absolute


class VmlNode(TreeNode):
    """Output tree node: a VML or plain HTML element; leaves holds its childless children as markup."""

    __slots__ = ("tag", "attributes", "style", "children", "text", "tail", "leaves")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None,
                 style: dict[str, str] | None = None, children: list["VmlNode"] | None = None,
                 text: str | None = None, tail: str | None = None, leaves: list[str] | None = None):
        self.tag = tag
        self.attributes = {} if attributes is None else attributes
        self.style = {} if style is None else style
        self.children = [] if children is None else children
        self.text = text
        self.tail = tail
        self.leaves = [] if leaves is None else leaves


class Conversion:
    """What every context of one map_document call shares.

    document     the parsed document, in which references resolve
    diagnostics  the collector every report of the mapping goes to
    precision    the decimal places of every number written
    root_size    the root svg's size, which the skew-path offset rule reads;
                 map_svg_root sets it at the document root, before any child
                 is mapped, so it is fixed wherever a copy is mapped
    budget       mapper calls left; the first call past it reports EXPANSION_LIMIT
    referring    the ids of the use targets being mapped, which a reference
                 inside them may not name again
    deepest      the deepest level a _map_node call has reached since the copy
                 being mapped began (see _map_copy)
    copies       each exact copy of a reference target, keyed by (target, chain
                 ops, paint): the mapped subtree, its mapper calls, and how many
                 levels below the target it reaches
    fills        each fill reference that resolved without a report, keyed by
                 its raw fill text: its v:fill pairs (see style.Paint.extend)
    paths        the segments of each path with an id whose d parsed without a
                 report, keyed by the id() of the path node (see map_path)

    fills and paths, like copies, keep only results that reported nothing, so
    a fault is computed and reported again wherever it recurs.
    """

    __slots__ = ("document", "diagnostics", "precision", "root_size", "budget", "referring", "deepest", "copies",
                 "fills", "paths")

    def __init__(self, document: SvgDocument, diagnostics: Diagnostics, precision: int):
        self.document = document
        self.diagnostics = diagnostics
        self.precision = precision
        self.root_size = (0.0, 0.0)
        self.budget = expansion_budget(document.elements)
        self.referring: set[str] = set()
        self.deepest = 0
        self.copies: dict[tuple, tuple[VmlNode | None, int, int]] = {}
        self.fills: dict[str, tuple] = {}
        self.paths: dict[int, list] = {}


class MapperContext:
    """What mapping one element reads from its place in the tree; the rest is its conversion's.

    A context is never changed once made: `at` copies it for a child.
    """

    __slots__ = ("conversion", "paint", "chain", "location", "depth")

    def __init__(self, conversion: Conversion, paint: Paint = NO_PAINT, chain: Chain = EMPTY_CHAIN,
                 location: LocationLike = "svg", depth: int = 1):
        self.conversion = conversion  # one per document, shared by every context
        self.paint = paint  # what the enclosing groups hand down
        self.chain = chain
        self.location = location
        self.depth = depth  # the root svg is level 1; each child and each use hop adds one

    def at(self, child: SvgNode, index: int) -> "MapperContext":
        """The context for child, the index-th child of this context's element.

        Runs once per child, so it copies the slots one by one and skips
        __init__, and its location keeps the step unrendered.
        """
        derived = object.__new__(MapperContext)
        derived.conversion = self.conversion
        derived.paint = self.paint
        derived.chain = self.chain
        derived.location = Location(self.location, child.name, index)
        derived.depth = self.depth + 1
        return derived


def _fmt(ctx: MapperContext, value: float) -> str:
    return format_number(value, ctx.conversion.precision)


def _attribute_location(ctx: MapperContext, name: str) -> Location:
    return Location(ctx.location, name)


def _length(ctx: MapperContext, node: SvgNode, name: str) -> float | None:
    raw = node.attributes.get(name)
    if raw is None:
        return None
    # A bare number, the common case, needs no location and no normalising.
    value = read_number(raw)
    if value is None:
        value = parse_length(raw, ctx.conversion.diagnostics, _attribute_location(ctx, name))
    return value


def _font_size(ctx: MapperContext, node: SvgNode) -> float | None:
    """node's font-size; None when it is absent or does not read.  A negative
    size, which CSS does not allow, is reported and does not read."""
    size = _length(ctx, node, "font-size")
    if size is not None and size < 0.0:
        message = f"font-size {node.attributes['font-size']!r} is negative"
        ctx.conversion.diagnostics.warning("BAD_ATTRIBUTE", message, _attribute_location(ctx, "font-size"))
        return None
    return size


def _effective_chain(node: SvgNode, ctx: MapperContext) -> Chain:
    """The inherited chain extended by the node's own transform list."""
    own_raw = node.attributes.get("transform")
    if own_raw is None:
        return ctx.chain
    own = parse_transform_list(own_raw, ctx.conversion.diagnostics, _attribute_location(ctx, "transform"))
    return ctx.chain.extend(own)


# The paint a text, a textPath and a foreignObject have no VML for: their
# own values are reported, the ones their groups hand down are not.
_DROPPED_PAINT = ("fill", *STROKE_TABLE)

# --- shared passes -----------------------------------------------------------


def _new(node: SvgNode, tag: str) -> VmlNode:
    """The output node for node, carrying its id over."""
    node_id = node.attributes.get("id")
    return VmlNode(tag, {"id": node_id} if node_id is not None else {})


def _write_box(ctx: MapperContext, mapped: VmlNode, left: float | None, top: float | None,
               width: float | None = None, height: float | None = None) -> None:
    """Write left, top, width and height ahead of every other style key; None leaves a key out.

    The one place a mapper writes an element's position and size.
    """
    precision = ctx.conversion.precision
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
        if name in node.attributes:
            message = f"{name} on {owner} has no VML mapping and is ignored"
            ctx.conversion.diagnostics.warning("UNSUPPORTED_ATTRIBUTE", message, ctx.location)


def _paint(node: SvgNode, ctx: MapperContext, shape: VmlNode, names: tuple[str, ...] = INHERITED) -> None:
    """Write the inherited paint, extended by the node's own properties among names, onto shape.

    Fill and stroke values become one v:fill and one v:stroke leaf at most,
    in the paint's order; a "none" fill or stroke sets filled or stroked to
    "f" instead.  Opacity becomes an alpha filter.
    """
    paint = ctx.paint.extend(node, ctx.conversion, ctx.location, names)
    leaves = shape.leaves
    stroke = None
    for name, mapped in paint.values.items():
        if mapped is None:
            continue
        if mapped is NONE_FLAGS.get(name):
            shape.attributes[mapped[0]] = mapped[1]
        elif name == "fill":
            leaves.append(vml_leaf("v:fill", mapped))
        elif stroke is None:  # the v:stroke goes where its first value came
            stroke, stroke_at = [mapped], len(leaves)
        else:
            stroke.append(mapped)
    if stroke is not None:
        leaves.insert(stroke_at, vml_leaf("v:stroke", stroke))
    if paint.opacity is not None:
        _append_filter(shape, alpha_filter(paint.opacity, ctx.conversion.precision))


# --- transform simulation ----------------------------------------------------

_EMPTY_BOX = (0.0, 0.0, 0.0, 0.0)


def _place(node: SvgNode, ctx: MapperContext, mapped: VmlNode | None) -> Placement | None:
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
        box = (float(get("left", 0)), float(get("top", 0)), float(get("width", 0)), float(get("height", 0)))
    strategy = STRATEGY_BY_TAG[node.tag]
    conversion = ctx.conversion
    return place(strategy, chain, box, conversion.root_size, conversion.precision, conversion.diagnostics, ctx.location)


def _finite(ctx: MapperContext, message: str, *values: float) -> bool:
    """True when every value is finite; otherwise reports message as a DEGENERATE_SHAPE error."""
    if all(map(math.isfinite, values)):
        return True
    ctx.conversion.diagnostics.error("DEGENERATE_SHAPE", message, ctx.location)
    return False


def _apply_box_transform(node: SvgNode, ctx: MapperContext, mapped: VmlNode) -> None:
    """Write the element's placement: its position, skew child or matrix filter."""
    placed = _place(node, ctx, mapped)
    if placed is None:
        return
    if placed.origin is not None:
        _write_box(ctx, mapped, *placed.origin)
    if placed.skew is not None:
        mapped.leaves.append(vml_leaf("v:skew", placed.skew.items()))
    if placed.filter is not None:
        _append_filter(mapped, placed.filter)


# --- element mappers ----------------------------------------------------------


def map_svg_root(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """svg -> v:group; viewBox becomes coordorigin/coordsize."""
    group = _new(node, "v:group")
    width = _length(ctx, node, "width")
    height = _length(ctx, node, "height")

    raw_box = node.attributes.get("viewBox")
    box = (
        parse_view_box(raw_box, ctx.conversion.diagnostics, _attribute_location(ctx, "viewBox"))
        if raw_box is not None
        else None
    )
    if box is not None:
        group.attributes["coordorigin"] = f"{_fmt(ctx, box.min_x)},{_fmt(ctx, box.min_y)}"
        group.attributes["coordsize"] = f"{_fmt(ctx, box.width)},{_fmt(ctx, box.height)}"
    else:
        if raw_box is None:
            ctx.conversion.diagnostics.warning(
                "MISSING_VIEWBOX", "svg has no viewBox; coordinate system defaults", ctx.location
            )
        group.attributes["coordorigin"] = "0,0"
        if width is not None and height is not None:
            group.attributes["coordsize"] = f"{_fmt(ctx, width)},{_fmt(ctx, height)}"

    _write_box(ctx, group, None, None, width, height)
    if node is ctx.conversion.document.root:
        # The skew-path offset rule reads the root size: width and height,
        # else the viewBox size, else 0.
        box_width, box_height = (box.width, box.height) if box is not None else (0.0, 0.0)
        ctx.conversion.root_size = (box_width if width is None else width, box_height if height is None else height)
    _map_children(node, ctx, group)
    return group


def _group_context(node: SvgNode, ctx: MapperContext) -> MapperContext:
    """The context of a g's or an a's children: its inheritable paint and transform pushed down."""
    paint = ctx.paint.extend(node, ctx.conversion, ctx.location)
    return MapperContext(ctx.conversion, paint, _effective_chain(node, ctx), ctx.location, ctx.depth)


def map_g(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """g -> v:group; inheritable attributes distribute to the children."""
    group = _new(node, "v:group")
    _map_children(node, _group_context(node, ctx), group)
    return group


def map_rect(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    """rect -> v:roundrect; rx/ry become the arcsize rounding ratio."""
    mark = len(ctx.conversion.diagnostics)
    width = _length(ctx, node, "width")
    height = _length(ctx, node, "height")
    if width is None or height is None or width <= 0 or height <= 0:
        _report_degenerate(ctx, mark, "rect needs positive width and height; skipped")
        return None
    x = _length(ctx, node, "x")
    y = _length(ctx, node, "y")

    shape = _new(node, "v:roundrect")
    arcsize: float | None = None
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
    """A DEGENERATE_SHAPE warning, unless a length or point list read after mark was already reported."""
    if len(ctx.conversion.diagnostics) == mark:
        ctx.conversion.diagnostics.warning("DEGENERATE_SHAPE", message, ctx.location)


def map_oval(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    """circle/ellipse -> v:oval with left/top/width/height derived from cx, cy and r or rx, ry."""
    mark = len(ctx.conversion.diagnostics)
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
        ctx.conversion.diagnostics.error("DEGENERATE_SHAPE", "negative radius", ctx.location)
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


def map_poly(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    """line/polyline/polygon -> v:shape; transforms recompute every point."""
    if node.tag == "line":
        coords = [_length(ctx, node, name) or 0.0 for name in ("x1", "y1", "x2", "y2")]
    else:
        mark = len(ctx.conversion.diagnostics)
        coords = parse_points(node.attributes.get("points", ""), ctx.conversion.diagnostics, ctx.location)
        if len(coords) < 4:
            _report_degenerate(ctx, mark, f"{node.tag} needs at least 2 points; skipped")
            return None

    closed = node.tag == "polygon"
    chain = _effective_chain(node, ctx)
    if chain.ops:
        # The coordinates as read are finite, so only the transform can overflow
        # and the untransformed path needs no check.
        path = _points_path(recalc_points(chain.ctm, coords), closed, ctx.conversion.precision)
        if is_finite_path(path):
            return _path_shape(node, ctx, path)
        ctx.conversion.diagnostics.error("BAD_TRANSFORM", OVERFLOW_IGNORED, ctx.location)
    return _path_shape(node, ctx, _points_path(coords, closed, ctx.conversion.precision))


def _points_path(coords: list[float], closed: bool, precision: int) -> str:
    """The VML path through flat x, y coordinates, closed for a polygon: one template, one format call."""
    template = "m %s,%s" + " l %s,%s" * (len(coords) // 2 - 1) + (" x e" if closed else " e")
    return template % tuple(format_numbers(coords, precision))


def _path_shape(node: SvgNode, ctx: MapperContext, path: str) -> VmlNode:
    """The painted v:shape for a finite VML path."""
    shape = _new(node, "v:shape")
    shape.attributes["path"] = path
    _paint(node, ctx, shape)
    return shape


def map_path(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    """path -> v:shape; the d attribute is normalized to absolute commands."""
    diagnostics = ctx.conversion.diagnostics
    d = node.attributes.get("d")
    if d is None:
        diagnostics.warning("DEGENERATE_SHAPE", "path without d; skipped", ctx.location)
        return None
    # A path with an id, which a textPath or a use can name, is parsed once per
    # conversion; a d that reported anything is parsed, and reported, again.
    paths = ctx.conversion.paths
    segments = paths.get(id(node))
    if segments is None:
        mark = len(diagnostics)
        segments = parse_path_data(d, diagnostics, _attribute_location(ctx, "d"))
        if len(diagnostics) > mark:
            return None
        if "id" in node.attributes:
            paths[id(node)] = segments
    if not segments:
        diagnostics.warning("DEGENERATE_SHAPE", "path with empty d; skipped", ctx.location)
        return None

    placed = _place(node, ctx, None)
    origin, skew = (placed.origin, placed.skew) if placed is not None else (None, None)
    dx, dy = origin or (0.0, 0.0)
    path = emit_vml_path(to_absolute(segments, dx, dy), ctx.conversion.precision)
    if not is_finite_path(path):
        diagnostics.error("BAD_PATH", "path coordinates overflow to a non-finite value; skipped", ctx.location)
        return None
    shape = _path_shape(node, ctx, path)
    if skew is not None:
        shape.leaves.append(vml_leaf("v:skew", skew.items()))
    return shape


def map_text(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    """text -> v:textbox (or the referenced shape when wrapping a textPath)."""
    for index, child in enumerate(node.children):
        if child.tag == "textPath":
            dropped = ("opacity", "fill-opacity", "transform", "x", "y", "dx", "dy", *_DROPPED_PAINT)
            _report_ignored(node, ctx, dropped, "a text holding a textPath")
            child_ctx = ctx.at(child, index)
            _report_ignored(child, child_ctx, ("startOffset", *_DROPPED_PAINT), "a textPath")
            return map_text_path(child, child_ctx, node, ctx)

    _report_ignored(node, ctx, ("dx", "dy", *_DROPPED_PAINT), "a text")
    x = _length(ctx, node, "x")
    top = _length(ctx, node, "y")
    if top is not None:
        font_size = _font_size(ctx, node)
        if font_size is None:
            font_size = 16.0
            # An unreadable font-size was reported where it was read.
            if node.attributes.get("font-size") is None:
                message = "text without font-size; assuming 16"
                ctx.conversion.diagnostics.warning("DEFAULT_FONT_SIZE", message, ctx.location)
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


def map_text_path(
    node: SvgNode, ctx: MapperContext, parent: SvgNode, parent_ctx: MapperContext
) -> VmlNode | None:
    """textPath -> the referenced path's v:shape, augmented for text-on-path.

    ctx locates the textPath's own reference and transform; the target path
    and the text's font-size are read under the text's parent_ctx.
    """
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    if target.tag != "path":
        ctx.conversion.diagnostics.error(
            "DANGLING_REF", "textPath reference is not a path element", ctx.location
        )
        return None

    shape = map_path(target, parent_ctx)
    if shape is None:
        return None
    # The shape stands for the text, not for the path it follows: it takes the text's id, or none.
    del shape.attributes["id"]
    text_id = parent.attributes.get("id")
    if text_id is not None:
        shape.attributes = {"id": text_id, **shape.attributes}
    text_path = {"on": "t", "string": (node.text or "").strip()}
    font_tokens = []
    font_size = _font_size(parent_ctx, parent)
    if font_size is not None:
        font_tokens.append(f"FONT-SIZE:{_fmt(ctx, font_size)}")
    family = parent.attributes.get("font-family")
    if family is not None:
        font_tokens.append(f"FONT-FAMILY:{family}")
    if font_tokens:
        text_path["style"] = ";".join(font_tokens)
    shape.leaves += (vml_leaf("v:path", (("textpathok", "t"),)), vml_leaf("v:textpath", text_path.items()))
    _apply_box_transform(node, ctx, shape)
    return shape


def map_foreign_object(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """foreignObject -> v:textbox holding the parsed content, which the emitter writes as parsed."""
    _report_ignored(node, ctx, _DROPPED_PAINT, "a foreignObject")
    box = _new(node, "v:textbox")
    _write_box(ctx, box, *(_length(ctx, node, name) for name in ("x", "y", "width", "height")))
    box.text = node.text
    box.children = list(node.children)
    _paint(node, ctx, box, ("opacity",))
    _apply_box_transform(node, ctx, box)
    return box


def map_defs(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """defs -> a hidden div; the content only shows through references, which share its copies."""
    div = _new(node, "div")
    div.style["visibility"] = "hidden"
    _map_children(node, ctx, div, _map_copy)
    return div


def map_use(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    """use -> a div containing the referenced element's copy under the use's paint."""
    div = _new(node, "div")
    _write_box(ctx, div, *(_length(ctx, node, name) for name in ("x", "y", "width", "height")))
    _report_ignored(node, ctx, ("transform",), "a use")
    # Read before the reference, so a paint fault is reported whether or not it resolves.
    paint = ctx.paint.extend(node, ctx.conversion, ctx.location)

    if _href(node) is None:
        ctx.conversion.diagnostics.warning("MISSING_HREF", "use without a reference", ctx.location)
        return div
    target = _resolve_reference(node, ctx)
    if target is None:
        return None
    ref_id = target.attributes.get("id") or ""
    referring = ctx.conversion.referring
    referring.add(ref_id)
    mapped = _map_copy(target, MapperContext(ctx.conversion, paint, ctx.chain, ctx.location, ctx.depth + 1))
    referring.discard(ref_id)
    if mapped is not None:
        div.children.append(mapped)
    return div


def _href(node: SvgNode) -> str | None:
    """The link target: xlink:href when present, else href."""
    return node.attributes.get("xlink:href", node.attributes.get("href"))


def _resolve_reference(node: SvgNode, ctx: MapperContext) -> SvgNode | None:
    raw = _href(node)
    if raw is None or not raw.startswith("#"):
        ctx.conversion.diagnostics.error("DANGLING_REF", f"unresolvable reference {raw!r}", ctx.location)
        return None
    ref_id = raw[1:]
    if ref_id in ctx.conversion.referring:
        ctx.conversion.diagnostics.error("DANGLING_REF", f"circular reference to #{ref_id}", ctx.location)
        return None
    target = ctx.conversion.document.id_index.get(ref_id)
    if target is None:
        ctx.conversion.diagnostics.error("DANGLING_REF", f"no element with id {ref_id!r}", ctx.location)
        return None
    return target


def map_anchor(node: SvgNode, ctx: MapperContext) -> VmlNode:
    """a -> an HTML a with the link target on href; like a g, it hands its attributes to its children."""
    anchor = _new(node, "a")
    href = _href(node)
    if href is None:
        ctx.conversion.diagnostics.warning("MISSING_HREF", "anchor without a link target", ctx.location)
    else:
        anchor.attributes["href"] = href
    if node.text and node.text.strip():
        anchor.text = node.text.strip()
    _map_children(node, _group_context(node, ctx), anchor)
    return anchor


_MAPPERS: dict[str, Callable[[SvgNode, MapperContext], VmlNode | None]] = {
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

def _map_node(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    conversion = ctx.conversion
    depth = ctx.depth
    if depth > conversion.deepest:
        conversion.deepest = depth
    if depth > MAX_DEPTH:
        # Parsing caps the tree, but use targets stack their depth on the use's.
        if not conversion.diagnostics.has_code("TOO_DEEP"):
            message = f"elements nest deeper than {MAX_DEPTH} levels through use; the deeper ones are skipped"
            conversion.diagnostics.error("TOO_DEEP", message, ctx.location)
        return None
    mapper = _MAPPERS.get(node.tag)
    if mapper is not None:
        conversion.budget -= 1
        if conversion.budget >= 0:
            return mapper(node, ctx)
        if conversion.budget == -1:
            budget = expansion_budget(conversion.document.elements)
            message = f"use copies map more than {budget} elements; the rest are skipped"
            conversion.diagnostics.error("EXPANSION_LIMIT", message, ctx.location)
        return None
    # Gradients and stops show through the fills that reference them, and
    # parsing already reported unknown elements; an orphaned textPath
    # (outside a text parent) is the one element skipped here.
    if node.tag == "textPath":
        conversion.diagnostics.warning(
            "SKIPPED_ELEMENT", f"element <{node.name}> has no mapping; skipped", ctx.location
        )
    return None


def _map_copy(node: SvgNode, ctx: MapperContext) -> VmlNode | None:
    """A reference target mapped under ctx: the subtree an earlier copy mapped, where it is exact.

    A copy depends only on its target, chain and paint, and the emitter only
    reads the tree, so a copy under the same chain ops (which determine the
    product) and paint appends the same subtree again.  A copy is kept only
    when it is exact anywhere: it reported nothing, stayed inside the budget
    and was not cut at the depth cap (after the first TOO_DEEP a cut is
    silent).  Its reuse charges the budget its mapper calls; where those
    calls or its levels do not fit, the target is mapped again, so each cut
    and its report fall where they would.
    """
    conversion = ctx.conversion
    depth = ctx.depth
    paint = ctx.paint
    key = (id(node), ctx.chain.ops, tuple(paint.values.items()), paint.opacity)
    copy = conversion.copies.get(key)
    if copy is not None:
        mapped, calls, span = copy
        if calls <= conversion.budget and depth + span <= MAX_DEPTH:
            conversion.budget -= calls
            if depth + span > conversion.deepest:
                conversion.deepest = depth + span
            return mapped
    reported, budget, deepest = len(conversion.diagnostics), conversion.budget, conversion.deepest
    conversion.deepest = depth
    mapped = _map_node(node, ctx)
    reached = conversion.deepest
    if reached <= MAX_DEPTH and conversion.budget >= 0 and len(conversion.diagnostics) == reported:
        conversion.copies[key] = (mapped, budget - conversion.budget, reached - depth)
    if deepest > reached:
        conversion.deepest = deepest
    return mapped


def _map_children(node: SvgNode, ctx: MapperContext, parent: VmlNode,
                  map_child: Callable[[SvgNode, MapperContext], VmlNode | None] = _map_node) -> None:
    for index, child in enumerate(node.children):
        child_ctx = ctx.at(child, index)
        mapped = map_child(child, child_ctx)
        if mapped is not None:
            parent.children.append(mapped)


def map_document(
    doc: SvgDocument,
    options: ConvertOptions | None = None,
    diagnostics: Diagnostics | None = None,
) -> tuple[VmlNode, Diagnostics]:
    """Translate a parsed document into its VML/HTML counterpart tree."""
    diagnostics = diagnostics if diagnostics is not None else doc.diagnostics
    conversion = Conversion(doc, diagnostics, (options or ConvertOptions()).precision)
    return map_svg_root(doc.root, MapperContext(conversion)), diagnostics

"""Seeded SVG corpora for the benchmark, each document with its expected output.

Every document is built as a small element model, written out as SVG text,
and paired with the count of each output tag the conversion must produce.
Those counts come from a model of the mapping table in PAPER.md applied to
the generated elements; nothing in this module imports svg2vml, so the
oracle stays independent of the converter it checks.

The generator emits only attributes and constructs that PAPER.md maps.
Group transform lists distribute into their children, so transform chains
are composed per strategy and only the combinations the strategy table
supports are written.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

SVG_NS = "http://www.w3.org/2000/svg"
XLINK_NS = "http://www.w3.org/1999/xlink"
XHTML_NS = "http://www.w3.org/1999/xhtml"

WORKLOADS = ("flat_shapes", "long_paths", "transform_tree", "passthrough")

# Conversion options per workload: (mode, pretty).
OPTIONS = {
    "flat_shapes": ("vml", False),
    "long_paths": ("vml", False),
    "transform_tree": ("vml", True),
    "passthrough": ("xhtml", True),
}

# passthrough converts the transform_tree documents, so both draw from one stream.
_GENERATOR = {"passthrough": "transform_tree"}

COLORS = ("red", "navy", "teal", "gold", "black", "#336699", "#c0ffee", "#a52a2a")
WORDS = ("alpha", "beta", "gamma", "delta", "R&D", "sigma", "omega", "vector", "markup", "shape")

# Presentation attributes a group pushes down to its descendants.
INHERITED = ("fill", "stroke", "stroke-width", "opacity")
STROKE_ATTRIBUTES = ("stroke", "stroke-width", "stroke-linecap", "stroke-linejoin", "stroke-miterlimit", "stroke-opacity")

# --- the strategy table (PAPER.md, "Transform simulation") -------------------

SKEW_SHAPE = "skew-shape"
SKEW_PATH = "skew-path"
RECALC_POINTS = "recalc-points"
MATRIX_FILTER = "matrix-filter"

STRATEGY = {
    "rect": SKEW_SHAPE,
    "circle": SKEW_SHAPE,
    "ellipse": SKEW_SHAPE,
    "path": SKEW_PATH,
    "line": RECALC_POINTS,
    "polyline": RECALC_POINTS,
    "polygon": RECALC_POINTS,
    "text": MATRIX_FILTER,
    "foreignObject": MATRIX_FILTER,
}

MULTI_OP = {
    SKEW_SHAPE: {"scale", "translate", "skewX", "skewY"},
    SKEW_PATH: {"scale", "translate"},
    MATRIX_FILTER: {"scale", "skewX", "skewY"},
}


def supported(strategy: str, names: list[str]) -> bool:
    """True when the strategy simulates this effective transform list.

    Point recalculation takes anything.  The other strategies take any single
    transform except matrix(), for which the converter has no offset rule, and
    multi-transform lists drawn from their row of the table.
    """
    if strategy == RECALC_POINTS:
        return True
    if "matrix" in names:
        return False
    return len(names) <= 1 or set(names) <= MULTI_OP[strategy]


# --- element model -----------------------------------------------------------


@dataclass
class El:
    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["El"] = field(default_factory=list)
    text: Optional[str] = None
    ops: list[tuple[str, tuple[float, ...]]] = field(default_factory=list)


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    expected: dict[str, int]  # output tag -> count below <body>


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    mode: str
    pretty: bool
    documents: tuple[Document, ...]

    @property
    def input_bytes(self) -> int:
        return sum(len(doc.text.encode("utf-8")) for doc in self.documents)


def num(value: float) -> str:
    """Two-decimal number text without exponent or trailing zeros."""
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _write(el: El, out: list[str]) -> None:
    attrs = dict(el.attrs)
    if el.ops:
        attrs["transform"] = " ".join(f"{name}({','.join(num(a) for a in args)})" for name, args in el.ops)
    attr_text = "".join(f' {name}="{_escape(value)}"' for name, value in attrs.items())
    if not el.children and el.text is None:
        out.append(f"<{el.tag}{attr_text}/>")
        return
    out.append(f"<{el.tag}{attr_text}>")
    if el.text is not None:
        out.append(_escape(el.text))
    for child in el.children:
        if el.text is None:
            out.append("\n")
        _write(child, out)
    out.append(f"</{el.tag}>")


def to_svg(root: El) -> str:
    out: list[str] = []
    _write(root, out)
    return "".join(out) + "\n"


# --- expected output ---------------------------------------------------------


def _index(root: El) -> dict[str, El]:
    found = {}
    stack = [root]
    while stack:
        el = stack.pop()
        if "id" in el.attrs:
            found[el.attrs["id"]] = el
        stack.extend(el.children)
    return found


def _href(el: El) -> str:
    return el.attrs["xlink:href"][1:]


def _presentation(el: El, inherited: dict[str, str], counts: Counter) -> None:
    if any(name in el.attrs for name in STROKE_ATTRIBUTES) or "stroke" in inherited or "stroke-width" in inherited:
        counts["v:stroke"] += 1
    fill = el.attrs.get("fill", inherited.get("fill"))
    if fill is not None and fill != "none":
        counts["v:fill"] += 1


def _require(strategy: str, names: list[str], el: El) -> None:
    if not supported(strategy, names):
        raise ValueError(f"generator wrote an unsupported transform chain {names} on <{el.tag}>")


_SHAPE_TAG = {"rect": "v:roundrect", "circle": "v:oval", "ellipse": "v:oval", "path": "v:shape"}


def _vml(el: El, inherited: dict, chain: list[str], ids: dict, counts: Counter) -> None:
    """Add el's expected output tags to counts, mapped under the inherited
    presentation attributes and transform chain."""
    tag = el.tag
    effective = chain + [name for name, _ in el.ops]
    if tag in ("svg", "g"):
        counts["v:group"] += 1
        if tag == "g":
            inherited = {**inherited, **{k: el.attrs[k] for k in INHERITED if k in el.attrs}}
            chain = effective
        for child in el.children:
            _vml(child, inherited, chain, ids, counts)
    elif tag in ("defs", "a"):
        counts["div" if tag == "defs" else "a"] += 1
        for child in el.children:
            _vml(child, inherited, chain, ids, counts)
    elif tag == "use":
        counts["div"] += 1
        _vml(ids[_href(el)], inherited, chain, ids, counts)
    elif tag in ("rect", "circle", "ellipse", "path"):
        _require(STRATEGY[tag], effective, el)
        counts[_SHAPE_TAG[tag]] += 1
        _presentation(el, inherited, counts)
        if any(name != "translate" for name in effective):
            counts["v:skew"] += 1
    elif tag in ("line", "polyline", "polygon"):
        counts["v:shape"] += 1
        _presentation(el, inherited, counts)
    elif tag == "text" and el.children:
        text_path = el.children[0]
        _require(MATRIX_FILTER, chain + [name for name, _ in text_path.ops], text_path)
        _vml(ids[_href(text_path)], inherited, chain, ids, counts)
        counts["v:path"] += 1
        counts["v:textpath"] += 1
    elif tag in ("text", "foreignObject"):
        _require(MATRIX_FILTER, effective, el)
        counts["v:textbox"] += 1
        stack = list(el.children)
        while stack:
            verbatim = stack.pop()
            counts[verbatim.tag] += 1
            stack.extend(verbatim.children)
    elif tag not in ("linearGradient", "stop"):
        raise ValueError(f"no mapping modelled for <{tag}>")


def expected_vml(root: El) -> dict[str, int]:
    counts: Counter = Counter()
    _vml(root, {}, [], _index(root), counts)
    return dict(counts)


def expected_passthrough(root: El) -> dict[str, int]:
    counts: Counter = Counter()
    stack = [(root, False)]
    while stack:
        el, foreign = stack.pop()
        counts[el.tag if foreign else "svg:" + el.tag] += 1
        stack.extend((child, foreign or el.tag == "foreignObject") for child in el.children)
    return dict(counts)


# --- shared pieces -----------------------------------------------------------


def _root(width: int, height: int) -> El:
    return El(
        "svg",
        {
            "xmlns": SVG_NS,
            "xmlns:xlink": XLINK_NS,
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
        },
    )


def _paint(rng: random.Random, p_fill: float, p_stroke: float, p_width: float, p_opacity: float, fills=COLORS) -> dict:
    attrs = {}
    if rng.random() < p_fill:
        attrs["fill"] = "none" if rng.random() < 0.1 else rng.choice(fills)
    if rng.random() < p_stroke:
        attrs["stroke"] = rng.choice(COLORS)
    if rng.random() < p_width:
        attrs["stroke-width"] = num(rng.uniform(0.5, 4))
    if rng.random() < p_opacity:
        attrs["opacity"] = num(rng.uniform(0.2, 1))
    return attrs


def _basic_shape(rng: random.Random, kind: str, fills=COLORS) -> El:
    x, y = rng.uniform(0, 760), rng.uniform(0, 560)
    if kind == "rect":
        attrs = {"x": num(x), "y": num(y), "width": num(rng.uniform(2, 40)), "height": num(rng.uniform(2, 40))}
        if rng.random() < 0.3:
            attrs["rx"] = num(rng.uniform(0.5, 3))
        if rng.random() < 0.15:
            attrs["ry"] = num(rng.uniform(0.5, 3))
    elif kind == "circle":
        attrs = {"cx": num(x), "cy": num(y), "r": num(rng.uniform(1, 20))}
    else:
        attrs = {"cx": num(x), "cy": num(y), "rx": num(rng.uniform(1, 20)), "ry": num(rng.uniform(1, 20))}
    attrs.update(_paint(rng, 0.5, 0.3, 0.2, 0.1, fills))
    return El(kind, attrs)


def _points(rng: random.Random, count: int) -> str:
    return " ".join(f"{num(rng.uniform(0, 800))},{num(rng.uniform(0, 600))}" for _ in range(count))


def _coord(rng: random.Random, low: float, high: float) -> str:
    return num(rng.uniform(low, high))


def _separator(rng: random.Random, text: str) -> str:
    # Compact forms are valid path grammar: a sign needs no separator.
    if text.startswith("-") and rng.random() < 0.3:
        return text
    return rng.choice((" ", ",", ", ")) + text


_PATH_ARITY = {"L": 2, "H": 1, "V": 1, "C": 6}


# Command letters and implicit-repetition counts cycle in a fixed order, so
# every path of a given length carries the same work whatever the seed; the
# seed picks the coordinates and absolute or relative form.
_PATH_LETTERS = "LHCVLC"
_PATH_REPEATS = (1, 2, 3, 1, 3, 2, 2)
_SUBPATH_EVERY = 24


def _path_data(rng: random.Random, groups: int) -> str:
    """Path data of `groups` coordinate groups plus close-paths, mixing
    absolute and relative commands with implicit repetition."""
    parts = [f"M{_coord(rng, 0, 800)},{_coord(rng, 0, 600)}"]
    written = step = 1
    while written < groups:
        letter = _PATH_LETTERS[step % len(_PATH_LETTERS)]
        repeat = min(_PATH_REPEATS[step % len(_PATH_REPEATS)], groups - written)
        step += 1
        relative = rng.random() < 0.5
        low, high = (-20, 20) if relative else (0, 800)
        chunk = letter.lower() if relative else letter
        for index in range(repeat * _PATH_ARITY[letter]):
            value = _coord(rng, low, high)
            chunk += rng.choice(("", " ")) + value if index == 0 else _separator(rng, value)
        parts.append(chunk)
        written += repeat
        if step % _SUBPATH_EVERY == 0 and written < groups:
            parts.append("z" if relative else "Z")
            parts.append(f"m{_coord(rng, -30, 30)} {_coord(rng, -30, 30)}")
            written += 1
    return " ".join(parts)


# --- flat_shapes -------------------------------------------------------------

FLAT_DOCS = 48
FLAT_GROUPS = 4
FLAT_SHAPES_PER_GROUP = 24
_FLAT_KINDS = ("rect", "rect", "circle", "ellipse")


def _flat_doc(rng: random.Random, index: int) -> El:
    root = _root(800, 600)
    for group_index in range(FLAT_GROUPS):
        group = El("g", _paint(rng, 0.6, 0.5, 0.4, 0.3))
        inner = El("g", _paint(rng, 0.5, 0.5, 0.3, 0.2)) if group_index % 2 == 0 else None
        for shape_index in range(FLAT_SHAPES_PER_GROUP):
            target = inner if inner is not None and shape_index % 3 == 0 else group
            target.children.append(_basic_shape(rng, _FLAT_KINDS[shape_index % 4]))
        if inner is not None:
            group.children.append(inner)
        root.children.append(group)
    return root


# --- long_paths --------------------------------------------------------------

PATH_DOCS = 48
PATHS_PER_DOC = 3
PATH_GROUPS_PER_PATH = 150
POLY_POINTS = 120
_LIGHT_TRANSFORMS = (("translate",), ("scale",), ("translate", "scale"), ("scale", "translate"))


def _light_op(rng: random.Random, name: str) -> tuple[str, tuple[float, ...]]:
    if name == "translate":
        return ("translate", (round(rng.uniform(-50, 50), 1), round(rng.uniform(-50, 50), 1)))
    return ("scale", (rng.choice((1.1, 1.2, 1.25, 1.5)),))


def _paths_doc(rng: random.Random, index: int) -> El:
    root = _root(800, 600)
    names = _LIGHT_TRANSFORMS[index % len(_LIGHT_TRANSFORMS)]
    group = El("g", _paint(rng, 0.3, 0.6, 0.5, 0.0), ops=[_light_op(rng, name) for name in names])
    for _ in range(PATHS_PER_DOC):
        attrs = {"d": _path_data(rng, PATH_GROUPS_PER_PATH)}
        attrs.update(_paint(rng, 0.5, 0.5, 0.3, 0.1))
        group.children.append(El("path", attrs))
    kind = "polygon" if index % 2 == 0 else "polyline"
    group.children.append(El(kind, {"points": _points(rng, POLY_POINTS), **_paint(rng, 0.5, 0.5, 0.3, 0.0)}))
    root.children.append(group)
    return root


# --- transform_tree / passthrough ---------------------------------------------

TREE_DOCS = 16
TREE_LEAVES_PER_GROUP = 5
TREE_DEPTH = 3
# A zone is a top-level group whose chain draws from one op family, so the
# leaves under it can be chosen to fit every strategy that family allows.
TREE_ZONES = (
    ("scale", "translate"),
    ("scale", "skewX", "skewY"),
    ("scale",),
    ("rotate", "skewX", "translate"),
    ("scale", "translate"),
    ("scale", "skewX", "skewY"),
)
_SINGLE_OP_ZONE = 3  # groups below this zone add no ops: the chain stays a single op
_LEAF_KINDS = ("rect", "circle", "ellipse", "path", "line", "polyline", "polygon", "text", "textPath", "foreignObject")
_LEAF_OPS = {
    SKEW_SHAPE: ("scale", "translate", "skewX", "skewY", "rotate"),
    SKEW_PATH: ("scale", "translate", "rotate", "skewX"),
    MATRIX_FILTER: ("scale", "skewX", "skewY", "rotate", "translate"),
    RECALC_POINTS: ("rotate", "matrix", "skewX", "translate", "scale"),
}
_GRADIENT_FILLS = COLORS + ("url(#grad-h)", "url(#grad-v)")


def _op(rng: random.Random, name: str) -> tuple[str, tuple[float, ...]]:
    if name in ("translate", "scale"):
        return _light_op(rng, name)
    if name == "rotate":
        angle = round(rng.uniform(5, 80), 1)
        if rng.random() < 0.3:
            return ("rotate", (angle, round(rng.uniform(0, 400), 1), round(rng.uniform(0, 300), 1)))
        return ("rotate", (angle,))
    if name in ("skewX", "skewY"):
        return (name, (round(rng.uniform(5, 35), 1),))
    return ("matrix", tuple(round(rng.uniform(0.5, 1.5), 2) for _ in range(4)) + (round(rng.uniform(-20, 20), 1), 3.0))


def _leaf_ops(rng: random.Random, strategy: str, chain: list[str], count: int):
    """Up to `count` own ops for a leaf such that chain + own is supported,
    or None when even the inherited chain alone is not."""
    for size in range(count, -1, -1):
        for _ in range(8):
            names = rng.sample(_LEAF_OPS[strategy], size)
            if supported(strategy, chain + names):
                return [_op(rng, name) for name in names]
    return None


def _gradient(gradient_id: str, horizontal: bool, rng: random.Random) -> El:
    axis = {"x1": "0", "y1": "0", "x2": "1", "y2": "0"} if horizontal else {"x1": "0", "y1": "0", "x2": "0", "y2": "1"}
    return El(
        "linearGradient",
        {"id": gradient_id, **axis},
        [
            El("stop", {"offset": "0%", "stop-color": rng.choice(COLORS)}),
            El("stop", {"offset": "100%", "stop-color": rng.choice(COLORS)}),
        ],
    )


def _text(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(words))


class _TreeBuilder:
    """Builds the zone groups.  Leaf kinds, op counts and group op names
    cycle in a fixed order, so the documents of every seed carry the same
    work; the seed draws op arguments, geometry and paint."""

    def __init__(self, rng: random.Random, text_paths: list[El]):
        self.rng = rng
        self.text_paths = text_paths
        self.leaves = 0
        self.groups = 0

    def leaf(self, chain: list[str]) -> El:
        rng = self.rng
        self.leaves += 1
        op_count = self.leaves % 3
        for offset in range(len(_LEAF_KINDS)):
            kind = _LEAF_KINDS[(self.leaves + offset) % len(_LEAF_KINDS)]
            if kind == "textPath":
                target = self.text_paths[self.leaves % len(self.text_paths)]
                ops = _leaf_ops(rng, MATRIX_FILTER, chain, op_count)
                if ops is not None and supported(SKEW_PATH, chain + [name for name, _ in target.ops]):
                    text_path = El("textPath", {"xlink:href": "#" + target.attrs["id"]}, text=_text(rng, 4), ops=ops)
                    return El("text", {"font-size": num(rng.uniform(8, 24)), "font-family": "Arial"}, [text_path])
                continue
            ops = _leaf_ops(rng, STRATEGY[kind], chain, op_count)
            if ops is not None:
                break
        if kind in ("rect", "circle", "ellipse"):
            el = _basic_shape(rng, kind, _GRADIENT_FILLS)
        elif kind == "path":
            el = El("path", {"d": _path_data(rng, 12), **_paint(rng, 0.5, 0.5, 0.3, 0.1, _GRADIENT_FILLS)})
        elif kind == "line":
            el = El("line", {"x1": _coord(rng, 0, 800), "y1": _coord(rng, 0, 600), "x2": _coord(rng, 0, 800), "y2": _coord(rng, 0, 600), "stroke": rng.choice(COLORS)})
        elif kind in ("polyline", "polygon"):
            el = El(kind, {"points": _points(rng, 8), **_paint(rng, 0.5, 0.5, 0.3, 0.0)})
        elif kind == "text":
            el = El("text", {"x": _coord(rng, 0, 700), "y": _coord(rng, 20, 600), "font-size": num(rng.uniform(8, 24))}, text=_text(rng, 3))
        else:
            div = El("div", {"xmlns": XHTML_NS}, [El("b", text=_text(rng, 1))], text=_text(rng, 2) + " ")
            el = El("foreignObject", {"x": _coord(rng, 0, 600), "y": _coord(rng, 0, 500), "width": "120", "height": "40"}, [div])
        el.ops = ops
        if self.leaves % 20 == 0:
            return El("a", {"xlink:href": f"https://example.org/{rng.randint(0, 999)}"}, [el])
        return el

    def group(self, zone: int, chain: list[str], depth: int) -> El:
        rng = self.rng
        family = TREE_ZONES[zone]
        self.groups += 1
        if zone == _SINGLE_OP_ZONE:
            count = 0 if chain else 1
        else:
            count = 1 + depth % 2
        names = [family[(self.groups + index) % len(family)] for index in range(count)]
        group = El("g", _paint(rng, 0.4, 0.4, 0.3, 0.2, _GRADIENT_FILLS), ops=[_op(rng, name) for name in names])
        chain = chain + names
        group.children = [self.leaf(chain) for _ in range(TREE_LEAVES_PER_GROUP)]
        if depth > 1:
            group.children.insert(self.groups % (len(group.children) + 1), self.group(zone, chain, depth - 1))
        return group


def _symbols(rng: random.Random) -> list[El]:
    """Reference targets of bounded depth: s2 uses s1 twice, s1 uses both s0s."""
    s0a = El("g", {"id": "s0a"}, [_basic_shape(rng, kind) for kind in ("rect", "circle", "ellipse")])
    for shape in s0a.children:
        shape.ops = [_op(rng, name) for name in rng.sample(sorted(MULTI_OP[SKEW_SHAPE]), 2)]
    s0b = El("g", {"id": "s0b", "stroke": "black"}, [
        El("polyline", {"points": _points(rng, 6)}, ops=[_op(rng, "rotate"), _op(rng, "matrix")]),
        _basic_shape(rng, "rect"),
    ])
    s1 = El("g", {"id": "s1"}, [
        El("use", {"xlink:href": "#s0a"}),
        El("use", {"xlink:href": "#s0b", "x": _coord(rng, 0, 50), "y": _coord(rng, 0, 50)}),
        _basic_shape(rng, "circle"),
    ])
    s2 = El("g", {"id": "s2"}, [El("use", {"xlink:href": "#s1"}), El("use", {"xlink:href": "#s1", "x": "20", "y": "20"})])
    return [s0a, s0b, s1, s2]


def _tree_doc(rng: random.Random, index: int) -> El:
    root = _root(800, 600)
    text_paths = [
        El("path", {"id": "tp0", "d": _path_data(rng, 10)}),
        El("path", {"id": "tp1", "d": _path_data(rng, 10), "stroke": "navy"}, ops=[_light_op(rng, "scale")]),
    ]
    defs = El("defs", children=[_gradient("grad-h", True, rng), _gradient("grad-v", False, rng), *text_paths, *_symbols(rng)])
    root.children.append(defs)
    builder = _TreeBuilder(rng, text_paths)
    for zone in range(len(TREE_ZONES)):
        root.children.append(builder.group(zone, [], TREE_DEPTH))
    for ref in ("s2", "s0a"):
        root.children.append(El("use", {"xlink:href": "#" + ref, "x": _coord(rng, 0, 400), "y": _coord(rng, 0, 300)}))
    return root


_BUILDERS = {
    "flat_shapes": (FLAT_DOCS, _flat_doc),
    "long_paths": (PATH_DOCS, _paths_doc),
    "transform_tree": (TREE_DOCS, _tree_doc),
}


def build_corpus(workload: str, seed: int) -> Corpus:
    """The workload's documents for this seed; the same seed gives the same bytes."""
    mode, pretty = OPTIONS[workload]
    source = _GENERATOR.get(workload, workload)
    count, make = _BUILDERS[source]
    rng = random.Random(f"{source}:{seed}")
    documents = []
    for index in range(count):
        root = make(rng, index)
        expected = expected_passthrough(root) if mode == "xhtml" else expected_vml(root)
        documents.append(Document(f"{source}-{seed}-{index}", to_svg(root), expected))
    return Corpus(workload, seed, mode, pretty, tuple(documents))

"""Acceptance gate: one test per criterion, each printing a PASS line.

Expected values are frozen from the printed reference translations and from
independent oracles (direct arithmetic, brute-force 3x3 matrix products,
cursor simulation); tolerances are stated per criterion.
"""

import math
import random

from conftest import ctm_of, map_snippet, read_ops, rejects, structurally_equal, wrap_svg
from svg2vml.cli import convert_text
from svg2vml.diagnostics import Diagnostics
from svg2vml.options import ConvertOptions
from svg2vml.path_data import parse_path_data, to_absolute
from svg2vml.svg_dom import Point, parse_svg
from svg2vml.transform import (
    DISTRIBUTE,
    EMPTY_CHAIN,
    MATRIX_FILTER,
    RECALC_POINTS,
    SKEW_PATH,
    SKEW_SHAPE,
    RootSize,
    ShapeBox,
    TransformOp,
    place,
    recalc_points,
)


def report(number: int, label: str) -> None:
    print(f"PASS criterion {number:02d}: {label}")


def find_all(node, tag):
    found = [node] if node.tag == tag else []
    for child in node.children:
        found.extend(find_all(child, tag))
    return found


def test_criterion_01_straight_segment_translations():
    tree, _ = map_snippet('<polyline points="0,0 100,100 200,200"/>')
    assert find_all(tree, "v:shape")[0].attributes["path"] == "m 0,0 l 100,100 l 200,200 e"
    tree, _ = map_snippet('<polygon points="0,0 100,100 200,200"/>')
    assert find_all(tree, "v:shape")[0].attributes["path"] == "m 0,0 l 100,100 l 200,200 x e"
    tree, _ = map_snippet('<line x1="0" y1="0" x2="100" y2="200"/>')
    assert find_all(tree, "v:shape")[0].attributes["path"] == "m 0,0 l 100,200 e"
    report(1, "polyline/polygon/line path strings match exactly")


def test_criterion_02_relative_moveto_normalization():
    parts = list(to_absolute(parse_path_data("m 100,100 m 200,200 z")))
    movetos = [coords for letter, coords in parts if letter == "m"]
    assert movetos == [(100.0, 100.0), (300.0, 300.0)]
    assert [letter for letter, _ in parts] == ["m", "m", "x"]
    report(2, "relative movetos accumulate to (100,100), (300,300)")


def test_criterion_03_view_box_mapping():
    tree, _ = map_snippet("", view_box="0 0 800 800")
    assert tree.attributes["coordorigin"] == "0,0"
    assert tree.attributes["coordsize"] == "800,800"
    report(3, 'viewBox "0 0 800 800" -> coordorigin "0,0", coordsize "800,800"')


def test_criterion_04_arcsize_quotient():
    tree, _ = map_snippet('<rect x="0" y="50" width="70" height="50" rx="5"/>')
    arcsize = float(find_all(tree, "v:roundrect")[0].attributes["arcsize"])
    assert abs(arcsize - 5 / 35) < 1e-6
    report(4, "arcsize 5/(70/2) = 0.142857 within 1e-6")


def test_criterion_05_rotation_filter_parameters():
    chain = EMPTY_CHAIN.extend(read_ops("rotate(20)"))
    placed = place(MATRIX_FILTER, chain, ShapeBox(0, 0, 10, 10), RootSize(9, 9), 2, Diagnostics())
    assert "(M11=0.94, M12=-0.34, M21=0.34, M22=0.94," in placed.filter
    m = chain.ctm
    assert abs(m.a**2 + m.b**2 - 1) < 1e-12 and abs(m.c**2 + m.d**2 - 1) < 1e-12
    report(5, "rotate(20) filter entries round to 0.94, -0.34, 0.34, 0.94")


def test_criterion_06_point_recalculation():
    points = [Point(300, 300), Point(350, 300), Point(350, 250), Point(400, 250), Point(400, 300), Point(450, 300)]
    got = recalc_points(ctm_of(read_ops("rotate(90, 300, 300)")), points)
    rounded = [(round(x), round(y)) for x, y in got]
    assert rounded == [(300, 300), (300, 350), (350, 350), (350, 400), (300, 400), (300, 450)]
    for (gx, gy), (ex, ey) in zip(got, rounded):
        assert abs(gx - ex) < 1e-9 and abs(gy - ey) < 1e-9
    report(6, "rotate(90,300,300) reproduces the printed point list exactly")


def test_criterion_07_skew_matrix_negation():
    tree, _ = map_snippet('<rect x="0" y="150" width="70" height="50" transform="scale(3,1)"/>')
    skew = find_all(tree, "v:skew")[0]
    assert skew.attributes["matrix"] == "-3, 0, 0, -1, 0, 0"
    report(7, 'scale(3,1) on rect emits skew matrix "-3, 0, 0, -1, 0, 0"')


def test_criterion_08_offset_formulas_against_direct_arithmetic():
    def compute_offset(name, args, box, root, strategy):
        placed = place(strategy, EMPTY_CHAIN.extend([TransformOp(name, args)]), box, root, 6, Diagnostics())
        assert placed is not None
        return placed.offset

    rng = random.Random(20090401)
    root = RootSize(1000.0, 1500.0)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-80.0, 80.0)
        r = math.radians(a)
        box = ShapeBox(
            rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(0, 400), rng.uniform(0, 400)
        )
        cx, cy = rng.uniform(-400, 400), rng.uniform(-400, 400)
        x, y, w, h = box

        checks = [
            (compute_offset("skewX", (a,), box, root, SKEW_SHAPE), (math.tan(r) * y + w, h)),
            (compute_offset("skewY", (a,), box, root, SKEW_SHAPE), (w, math.tan(r) * x + h)),
            (
                compute_offset("rotate", (a,), box, root, SKEW_SHAPE),
                (x * math.cos(r) - y * math.sin(r) - w, x * math.sin(r) + y * math.cos(r) - h),
            ),
            (
                compute_offset("rotate", (a, cx, cy), box, root, MATRIX_FILTER),
                (
                    math.cos(r) * (x - cx) - math.sin(r) * (y - cy) - w + cx,
                    math.sin(r) * (x - cx) + math.cos(r) * (y - cy) - h + cy,
                ),
            ),
            (
                compute_offset("rotate", (a,), box, root, SKEW_PATH),
                (
                    math.cos(r) * root.width - math.sin(r) * root.height - root.width,
                    math.sin(r) * root.width + math.cos(r) * root.height - root.height,
                ),
            ),
        ]
        for got, want in checks:
            worst = max(worst, abs(got.dx - want[0]), abs(got.dy - want[1]))
    assert worst < 1e-9
    report(8, f"five offset rules match direct arithmetic (max err {worst:.2e})")


def test_criterion_09_ctm_algebra():
    def oracle_matrix(op):
        name, args = op.name, op.args
        if name == "translate":
            return [[1, 0, args[0]], [0, 1, args[1]], [0, 0, 1]]
        if name == "scale":
            return [[args[0], 0, 0], [0, args[1], 0], [0, 0, 1]]
        if name == "rotate":
            r = math.radians(args[0])
            rot = [[math.cos(r), -math.sin(r), 0], [math.sin(r), math.cos(r), 0], [0, 0, 1]]
            if len(args) == 1:
                return rot
            pre = [[1, 0, args[1]], [0, 1, args[2]], [0, 0, 1]]
            post = [[1, 0, -args[1]], [0, 1, -args[2]], [0, 0, 1]]
            return matmul(matmul(pre, rot), post)
        if name == "skewX":
            return [[1, math.tan(math.radians(args[0])), 0], [0, 1, 0], [0, 0, 1]]
        return [[1, 0, 0], [math.tan(math.radians(args[0])), 1, 0], [0, 0, 1]]

    def matmul(p, q):
        return [[sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    rng = random.Random(51)
    worst = 0.0
    for _ in range(1000):
        ops = []
        for _ in range(rng.randint(0, 5)):
            choice = rng.randrange(5)
            if choice == 0:
                ops.append(TransformOp("translate", (rng.uniform(-99, 99), rng.uniform(-99, 99))))
            elif choice == 1:
                ops.append(TransformOp("scale", (rng.uniform(0.1, 10), rng.uniform(0.1, 10))))
            elif choice == 2:
                ops.append(
                    TransformOp("rotate", (rng.uniform(-80, 80), rng.uniform(-50, 50), rng.uniform(-50, 50)))
                    if rng.random() < 0.5
                    else TransformOp("rotate", (rng.uniform(-80, 80),))
                )
            else:
                ops.append(TransformOp("skewX" if choice == 3 else "skewY", (rng.uniform(-80, 80),)))

        ctm = ctm_of(ops)
        expected = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for op in ops:
            expected = matmul(expected, oracle_matrix(op))
        got = [[ctm.a, ctm.c, ctm.e], [ctm.b, ctm.d, ctm.f], [0, 0, 1]]
        for i in range(3):
            for j in range(3):
                worst = max(worst, abs(got[i][j] - expected[i][j]))

        point = Point(rng.uniform(-99, 99), rng.uniform(-99, 99))
        composed = recalc_points(ctm, [point])[0]
        sequential = point
        for op in reversed(ops):
            sequential = recalc_points(ctm_of([op]), [sequential])[0]
        worst = max(worst, abs(composed.x - sequential.x), abs(composed.y - sequential.y))
    assert worst < 1e-9
    report(9, f"1000 composed transform lists match the 3x3 oracle (max err {worst:.2e})")


def test_criterion_10_transform_support_matrix():
    combos = [
        read_ops("scale(2) translate(1, 1)"),
        read_ops("scale(2) skewX(10)"),
        read_ops("skewX(10) skewY(10)"),
        read_ops("scale(2) translate(1, 1) skewX(10) skewY(10)"),
        read_ops("rotate(30) scale(2)"),
        read_ops("rotate(30) translate(1, 1)"),
    ]
    grid = {
        RECALC_POINTS: [True, True, True, True, True, True],
        SKEW_SHAPE: [True, True, True, True, False, False],
        SKEW_PATH: [True, False, False, False, False, False],
        MATRIX_FILTER: [False, True, True, False, False, False],
        DISTRIBUTE: [True, True, True, True, True, True],
    }
    for strategy, row in grid.items():
        for combo, expected_ok in zip(combos, row):
            assert rejects(strategy, combo) is not expected_ok, (strategy, combo)
    report(10, "5x6 strategy/multi-transform support grid matches")


def test_criterion_11_path_command_coverage():
    translated = {
        "M 1 2": "M",
        "m 1 2": "M",
        "M 1 2 Z": "Z",
        "M 1 2 z": "Z",
        "M 1 2 L 3 4": "L",
        "M 1 2 l 3 4": "L",
        "M 1 2 H 3": "H",
        "M 1 2 h 3": "H",
        "M 1 2 V 3": "V",
        "M 1 2 v 3": "V",
        "M 1 2 C 1 2 3 4 5 6": "C",
        "M 1 2 c 1 2 3 4 5 6": "C",
    }
    for d, kind in translated.items():
        diags = Diagnostics()
        segments = parse_path_data(d, diags)
        assert not diags.has_errors, d
        assert segments[-1][0] == kind

    for letter in "SsQqTt":
        diags = Diagnostics()
        parse_path_data(f"M 0 0 {letter} 1 2 3 4 5 6", diags)
        assert "UNSUPPORTED_COMMAND" in diags.codes(), letter
    for letter in "Aa":
        diags = Diagnostics()
        parse_path_data(f"M 0 0 {letter} 1 1 0 0 0 5 5", diags)
        assert "FUTURE_WORK_ARC" in diags.codes(), letter
    report(11, "M/Z/L/H/V/C translate; S/Q/T and A are rejected by code")


def test_criterion_12_group_distribution_equivalence():
    grouped = map_snippet(
        '<g transform="scale(2)"><rect x="10" y="10" width="20" height="20"/>'
        '<line x1="0" y1="0" x2="50" y2="0"/></g>'
    )[0]
    distributed = map_snippet(
        '<g><rect x="10" y="10" width="20" height="20" transform="scale(2)"/>'
        '<line x1="0" y1="0" x2="50" y2="0" transform="scale(2)"/></g>'
    )[0]
    assert grouped == distributed
    report(12, "group transform and per-child transform map identically")


def test_criterion_13_text_on_path_golden():
    tree, diags = map_snippet(
        '<defs><path id="MyPath" d="M 100 200 C 200 100 300 0 400 100'
        ' C 500 200 600 300 700 200 C 800 100 900 100 900 100"/></defs>'
        '<text font-family="Verdana" font-size="40px">'
        "<textPath xlink:href=\"#MyPath\">We go up, then we go down</textPath></text>",
        view_box="0 0 1000 300",
        size=(1000, 300),
    )
    assert not diags.has_errors
    augmented = find_all(tree, "v:shape")[-1]
    kinds = [token for token in augmented.attributes["path"].split() if token.isalpha()]
    assert kinds == ["m", "c", "c", "c", "e"]
    path_flag = [c for c in augmented.children if c.tag == "v:path"][0]
    assert path_flag.attributes == {"textpathok": "t"}
    text_path = [c for c in augmented.children if c.tag == "v:textpath"][0]
    assert text_path.attributes == {
        "on": "t",
        "string": "We go up, then we go down",
        "style": "FONT-SIZE:40;FONT-FAMILY:Verdana",
    }
    report(13, "text-on-path golden fragment matches")


def test_criterion_14_stroke_attribute_table():
    tree, _ = map_snippet(
        '<rect width="5" height="5" stroke="blue" stroke-width="2" stroke-linecap="round"'
        ' stroke-linejoin="miter" stroke-miterlimit="4" stroke-opacity="0.5"/>'
    )
    stroke = find_all(tree, "v:stroke")[0]
    assert stroke.attributes == {
        "color": "blue",
        "weight": "2",
        "endcap": "round",
        "joinstyle": "miter",
        "miterlimit": "4",
        "opacity": "0.5",
    }
    report(14, "all six stroke attributes map to their v:stroke names")


def _corpus() -> str:
    rng = random.Random(61)
    parts = [
        '<defs><linearGradient id="grad"><stop offset="0%" stop-color="red"/>'
        '<stop offset="100%" stop-color="blue"/></linearGradient>'
        '<rect id="proto" x="5" y="5" width="20" height="10" fill="green"/>'
        '<path id="curve" d="M 0 0 C 10 10 20 0 30 10"/></defs>'
    ]
    for i in range(12):
        parts.append(
            f'<rect x="{i * 10}" y="{i * 5}" width="{10 + i}" height="{8 + i}" rx="2"'
            f' fill="url(#grad)" stroke="black" stroke-width="{1 + i % 3}"/>'
        )
    for i in range(8):
        parts.append(f'<circle cx="{i * 7}" cy="{i * 9}" r="{3 + i}" opacity="0.75"/>')
    for i in range(6):
        parts.append(f'<ellipse cx="{50 + i}" cy="{40 + i}" rx="{5 + i}" ry="{4 + i}"/>')
    for i in range(6):
        points = " ".join(
            f"{rng.randint(0, 400)},{rng.randint(0, 400)}" for _ in range(4 + i % 3)
        )
        tag = "polyline" if i % 2 else "polygon"
        parts.append(f'<{tag} points="{points}" transform="rotate({i * 17}, 200, 200)"/>')
    for i in range(4):
        parts.append(f'<line x1="0" y1="{i}" x2="{100 + i}" y2="{50 + i}"/>')
    for i in range(4):
        parts.append(
            f'<path d="m {i} {i} l 10 0 v 5 h -10 c 1 1 2 2 3 3 z" transform="translate({i}, {i})"/>'
        )
    parts.append('<g transform="scale(2) translate(3,4)"><rect x="1" y="1" width="5" height="5"/></g>')
    parts.append('<g fill="purple" opacity="0.5"><circle cx="9" cy="9" r="3"/><rect width="4" height="4"/></g>')
    parts.append('<use xlink:href="#proto" x="100" y="100"/>')
    parts.append('<text x="10" y="40" font-size="14">corpus label</text>')
    parts.append(
        '<text font-family="Verdana" font-size="18">'
        '<textPath xlink:href="#curve">along the curve</textPath></text>'
    )
    parts.append(
        '<foreignObject x="10" y="10" width="100" height="50" opacity="0.5">'
        "<div>hello <b>world</b></div></foreignObject>"
    )
    parts.append('<a xlink:href="http://example.com"><rect x="2" y="2" width="9" height="9"/></a>')
    return wrap_svg("".join(parts), view_box="0 0 400 400", size=(400, 400))


def test_criterion_15_end_to_end_determinism_and_round_trip():
    source = _corpus()
    doc = parse_svg(source)
    element_count = sum(1 for _ in doc.root.iter_nodes())
    assert element_count >= 50, element_count

    first, diags_a = convert_text(source, ConvertOptions(pretty=True))
    second, diags_b = convert_text(source, ConvertOptions(pretty=True))
    assert first is not None and first == second
    assert [str(d) for d in diags_a] == [str(d) for d in diags_b]

    passthrough, _ = convert_text(source, ConvertOptions(mode="xhtml"))
    reparsed = parse_svg(passthrough)
    assert reparsed is not None
    assert structurally_equal(doc.root, reparsed.root)
    report(15, f"{element_count}-element corpus converts deterministically and round-trips")

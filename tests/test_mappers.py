import hashlib
import math
import random

import pytest

from conftest import ctm_of, find, find_all, find_one, map_snippet, read_ops, wrap_svg
from svg2vml import ConvertOptions, convert_text, mappers, style, transform
from svg2vml.diagnostics import Diagnostics
from svg2vml.mappers import _MAPPERS, map_document
from svg2vml.numeric import format_number, read_number
from svg2vml.style import STROKE_TABLE
from svg2vml.svg_dom import IMPLEMENTED_TAGS, parse_svg
from svg2vml.transform import recalc_points


class TestSvgRoot:
    def test_view_box_to_coord_attributes(self):
        tree, _ = map_snippet("", view_box="0 0 800 800", size=(800, 800))
        assert tree.tag == "v:group"
        assert tree.attributes["coordorigin"] == "0,0"
        assert tree.attributes["coordsize"] == "800,800"
        assert tree.style == {"width": "800", "height": "800"}

    def test_unit_view_box(self):
        tree, _ = map_snippet("", view_box="0 0 1 1")
        assert tree.attributes["coordsize"] == "1,1"

    def test_text_path_example_root(self):
        tree, _ = map_snippet("", view_box="0 0 1000 300", size=(1000, 300))
        assert tree.attributes["coordsize"] == "1000,300"

    def test_missing_view_box_defaults_with_warning(self):
        doc = parse_svg('<svg width="640" height="480"/>')
        tree, diags = map_document(doc)
        assert tree.attributes["coordorigin"] == "0,0"
        assert tree.attributes["coordsize"] == "640,480"
        assert "MISSING_VIEWBOX" in diags.codes()

    def test_empty_svg_is_single_group(self):
        doc = parse_svg("<svg/>")
        tree, _ = map_document(doc)
        assert tree.tag == "v:group"
        assert tree.children == []


class TestRect:
    def test_example_geometry(self):
        tree, _ = map_snippet('<rect x="1" y="1" width="1198" height="398"/>')
        rect = find_one(tree, "v:roundrect")
        assert rect.style == {"left": "1", "top": "1", "width": "1198", "height": "398"}

    def test_arcsize_from_rx(self):
        tree, _ = map_snippet('<rect x="0" y="0" width="70" height="50" rx="5"/>')
        assert find_one(tree, "v:roundrect").attributes["arcsize"] == "0.142857"

    def test_arcsize_zero(self):
        tree, _ = map_snippet('<rect width="70" height="50" rx="0"/>')
        assert find_one(tree, "v:roundrect").attributes["arcsize"] == "0"

    def test_last_radius_attribute_wins(self):
        tree, _ = map_snippet('<rect width="70" height="50" rx="5" ry="10"/>')
        # ry parsed after rx: 10 / (50 / 2)
        assert find_one(tree, "v:roundrect").attributes["arcsize"] == "0.4"

    def test_arcsize_clamped(self):
        tree, _ = map_snippet('<rect width="10" height="10" rx="50"/>')
        assert find_one(tree, "v:roundrect").attributes["arcsize"] == "1"

    @pytest.mark.parametrize("attrs", ['width="0" height="5"', 'width="5" height="-1"', 'height="5"'])
    def test_degenerate_is_skipped_with_warning(self, attrs):
        tree, diags = map_snippet(f"<rect {attrs}/>")
        assert find_all(tree, "v:roundrect") == []
        assert "DEGENERATE_SHAPE" in diags.codes()

    @pytest.mark.parametrize("attrs", ['width="2em" height="1"', 'width="2em" height="0"'])
    def test_unreadable_width_is_one_diagnostic(self, attrs):
        tree, diags = map_snippet(f"<rect {attrs}/>")
        assert find_all(tree, "v:roundrect") == []
        assert [(d.code, d.location) for d in diags] == [("UNSUPPORTED_UNIT", "svg/rect[0]@width")]


class TestCircleAndEllipse:
    def test_origin_cornered_circle(self):
        tree, _ = map_snippet('<circle cx="5" cy="5" r="5"/>')
        oval = find_one(tree, "v:oval")
        assert oval.style == {"left": "0", "top": "0", "width": "10", "height": "10"}

    def test_circle_formula(self):
        tree, _ = map_snippet('<circle cx="100" cy="50" r="20"/>')
        oval = find_one(tree, "v:oval")
        assert oval.style == {"left": "80", "top": "30", "width": "40", "height": "40"}

    def test_ellipse_formula(self):
        tree, _ = map_snippet('<ellipse cx="100" cy="50" rx="30" ry="10"/>')
        oval = find_one(tree, "v:oval")
        assert oval.style == {"left": "70", "top": "40", "width": "60", "height": "20"}

    @pytest.mark.parametrize(
        "element,attribute",
        [('<circle r="2em"/>', "svg/circle[0]@r"), ('<ellipse rx="1" ry="2em"/>', "svg/ellipse[0]@ry")],
        ids=["circle", "ellipse"],
    )
    def test_unreadable_radius_is_one_diagnostic(self, element, attribute):
        tree, diags = map_snippet(element)
        assert find_all(tree, "v:oval") == []
        assert [(d.code, d.location) for d in diags] == [("UNSUPPORTED_UNIT", attribute)]

    def test_negative_radius_is_error(self):
        tree, diags = map_snippet('<circle cx="1" cy="1" r="-4"/>')
        assert find_all(tree, "v:oval") == []
        assert diags.has_errors

    OVERFLOWING_RADIUS = "1" + "0" * 308  # finite, but twice it is not

    @pytest.mark.parametrize(
        "element,severity,message",
        [
            ('<circle cx="1" cy="1"/>', "warning", "circle without r; skipped"),
            ('<ellipse ry="1"/>', "warning", "ellipse without rx/ry; skipped"),
            ('<ellipse rx="1"/>', "warning", "ellipse without rx/ry; skipped"),
            ('<circle r="-1"/>', "error", "negative radius"),
            ('<ellipse rx="-1" ry="1"/>', "error", "negative radius"),
            ('<ellipse rx="1" ry="-1"/>', "error", "negative radius"),
            (f'<circle r="{OVERFLOWING_RADIUS}"/>', "error", "box overflows to a non-finite value; skipped"),
            (f'<ellipse rx="1" ry="{OVERFLOWING_RADIUS}"/>', "error", "box overflows to a non-finite value; skipped"),
        ],
        ids=[
            "circle-no-r", "ellipse-no-rx", "ellipse-no-ry",
            "circle-negative-r", "ellipse-negative-rx", "ellipse-negative-ry",
            "circle-overflow", "ellipse-overflow",
        ],
    )
    def test_skipped_oval_gives_its_exact_diagnostic(self, element, severity, message):
        tree, diags = map_snippet(element)
        assert find_all(tree, "v:oval") == []
        tag = element[1:].split(" ", 1)[0]
        assert [(d.severity, d.code, d.message, d.location) for d in diags] == [
            (severity, "DEGENERATE_SHAPE", message, f"svg/{tag}[0]")
        ]


class TestPoly:
    def test_polyline(self):
        tree, _ = map_snippet('<polyline points="0,0 100,100 200,200"/>')
        assert find_one(tree, "v:shape").attributes["path"] == "m 0,0 l 100,100 l 200,200 e"

    def test_polygon_closes(self):
        tree, _ = map_snippet('<polygon points="0,0 100,100 200,200"/>')
        assert find_one(tree, "v:shape").attributes["path"] == "m 0,0 l 100,100 l 200,200 x e"

    def test_line(self):
        tree, _ = map_snippet('<line x1="0" y1="0" x2="100" y2="200"/>')
        assert find_one(tree, "v:shape").attributes["path"] == "m 0,0 l 100,200 e"

    def test_single_point_skipped(self):
        tree, diags = map_snippet('<polyline points="5,5"/>')
        assert find_all(tree, "v:shape") == []
        assert "DEGENERATE_SHAPE" in diags.codes()

    def test_rotated_polyline_points_are_recalculated(self):
        tree, _ = map_snippet(
            '<polyline points="300,300 350,300 350,250 400,250 400,300 450,300"'
            ' transform="rotate(90, 300, 300)"/>'
        )
        shape = find_one(tree, "v:shape")
        assert shape.attributes["path"] == "m 300,300 l 300,350 l 350,350 l 350,400 l 300,400 l 300,450 e"
        assert find_all(tree, "v:skew") == []

    def test_random_polylines_match_ctm_oracle(self):
        rng = random.Random(99)
        transforms = [
            "rotate(30) scale(2) translate(1,1)",
            "skewX(15) translate(-4,9) rotate(10, 5, 5)",
            "scale(0.5, 3) rotate(-45)",
            "matrix(1 0.2 0.3 1 10 20) rotate(5)",
        ]
        for transform in transforms:
            coords = [rng.uniform(-50, 50) for _ in range(16)]
            point_text = " ".join(f"{x},{y}" for x, y in zip(coords[0::2], coords[1::2]))
            tree, diags = map_snippet(f'<polyline points="{point_text}" transform="{transform}"/>')
            assert not diags.has_errors
            path = find_one(tree, "v:shape").attributes["path"]
            ctm = ctm_of(read_ops(transform))
            moved = recalc_points(ctm, coords)
            expected = list(zip(moved[0::2], moved[1::2]))
            numbers = [
                read_number(token)
                for chunk in path[:-1].replace("m", "").replace("l", "").split()
                for token in chunk.split(",")
            ]
            got = list(zip(numbers[::2], numbers[1::2]))
            for (gx, gy), (ex, ey) in zip(got, expected):
                assert abs(gx - ex) < 1e-6
                assert abs(gy - ey) < 1e-6


class TestPath:
    def test_mixed_case_moveto_with_close(self):
        tree, _ = map_snippet('<path d="m 100,100 M 200,200 z"/>')
        assert find_one(tree, "v:shape").attributes["path"] == "m 100,100 m 200,200 x e"

    def test_trivial(self):
        tree, _ = map_snippet('<path d="M 0 0"/>')
        assert find_one(tree, "v:shape").attributes["path"] == "m 0,0 e"

    def test_figure_6_3_commands(self):
        tree, _ = map_snippet(
            '<path d="M 100 200 C 200 100 300 0 400 100'
            ' C 500 200 600 300 700 200 C 800 100 900 100 900 100"/>'
        )
        path = find_one(tree, "v:shape").attributes["path"]
        assert path == (
            "m 100,200 c 200,100,300,0,400,100 c 500,200,600,300,700,200"
            " c 800,100,900,100,900,100 e"
        )

    def test_unsupported_command_skips_element(self):
        tree, diags = map_snippet('<path d="M 0 0 Q 1 1 2 2"/>')
        assert find_all(tree, "v:shape") == []
        assert "UNSUPPORTED_COMMAND" in diags.codes()

    def test_arc_skips_element(self):
        tree, diags = map_snippet('<path d="M 0 0 A 1 1 0 0 0 5 5"/>')
        assert find_all(tree, "v:shape") == []
        assert "FUTURE_WORK_ARC" in diags.codes()

    def test_rotate_gets_plain_skew_and_root_offsets(self):
        tree, diags = map_snippet(
            '<path d="M 100 100 200 200 L 300 100 200 300 Z" transform="rotate(20, 300, 300)"/>',
            view_box="0 0 1000 1500",
            size=(1000, 1500),
        )
        assert not diags.has_errors
        skew = find_one(tree, "v:skew")
        assert skew.attributes["matrix"] == "0.939693, -0.34202, 0.34202, 0.939693, 0, 0"
        # offsets from the root size, sign-flipped into the offset slot
        dx = math.cos(math.radians(20)) * 1000 - math.sin(math.radians(20)) * 1500 - 1000
        dy = math.sin(math.radians(20)) * 1000 + math.cos(math.radians(20)) * 1500 - 1500
        assert skew.attributes["offset"] == f"{-round(dx, 6):.6f}".rstrip("0").rstrip(".") + "px," + (
            f"{-round(dy, 6):.6f}".rstrip("0").rstrip(".") + "px"
        )

    def test_translate_shifts_coordinates_without_skew(self):
        tree, _ = map_snippet('<path d="M 10 10 L 20 20" transform="translate(5, -5)"/>')
        shape = find_one(tree, "v:shape")
        assert shape.attributes["path"] == "m 15,5 l 25,15 e"
        assert find_all(tree, "v:skew") == []

    def test_scale_translate_multi(self):
        tree, diags = map_snippet(
            '<path d="M 10 10 L 20 20" transform="scale(2) translate(5, 0)"/>'
        )
        assert not diags.has_errors
        shape = find_one(tree, "v:shape")
        # ctm = (2,0,0,2,10,0): coordinates shift by the accumulated
        # translation, the scale rides in the skew matrix
        assert shape.attributes["path"] == "m 20,10 l 30,20 e"
        assert find_one(tree, "v:skew").attributes["matrix"] == "2, 0, 0, 2, 0, 0"

    def test_multi_with_rotate_is_unsupported(self):
        tree, diags = map_snippet('<path d="M 0 0 L 1 1" transform="rotate(10) scale(2)"/>')
        assert "UNSUPPORTED_TRANSFORM" in diags.codes()
        shape = find_one(tree, "v:shape")  # still emitted, untransformed
        assert shape.attributes["path"] == "m 0,0 l 1,1 e"


class TestShapeTransforms:
    def test_scale_emits_negated_skew_matrix(self):
        tree, _ = map_snippet('<rect x="0" y="150" width="70" height="50" transform="scale(3,1)"/>')
        skew = find_one(tree, "v:skew")
        assert skew.attributes["on"] == "t"
        assert skew.attributes["matrix"] == "-3, 0, 0, -1, 0, 0"
        # dx = 3 * width, dy = 1 * height, applied leftward/upward
        assert skew.attributes["offset"] == "-210px,-50px"

    def test_translate_moves_coordinates_only(self):
        tree, _ = map_snippet('<rect x="10" y="10" width="20" height="20" transform="translate(7, 8)"/>')
        rect = find_one(tree, "v:roundrect")
        assert rect.style["left"] == "17"
        assert rect.style["top"] == "18"
        assert find_all(tree, "v:skew") == []

    def test_rotate_about_point_pre_shifts_coordinates(self):
        tree, _ = map_snippet(
            '<rect x="350" y="70" width="100" height="200" transform="rotate(10, 300, 300)"/>'
        )
        rect = find_one(tree, "v:roundrect")
        assert rect.style["left"] == "50"  # 350 - 300
        assert rect.style["top"] == "-230"  # 70 - 300
        skew = find_one(tree, "v:skew")
        r = math.radians(10)
        negated = (-math.cos(r), -math.sin(r), math.sin(r), -math.cos(r))
        assert skew.attributes["matrix"].startswith(
            ", ".join(f"{v:.6f}".rstrip("0").rstrip(".") for v in negated)
        )

    def test_unsupported_multi_keeps_element_untransformed(self):
        tree, diags = map_snippet(
            '<rect x="1" y="1" width="5" height="5" transform="rotate(10) rotate(20)"/>'
        )
        assert "UNSUPPORTED_TRANSFORM" in diags.codes()
        rect = find_one(tree, "v:roundrect")
        assert find_all(rect, "v:skew") == []
        assert rect.style["left"] == "1"

    def test_skew_x_offsets(self):
        tree, _ = map_snippet('<rect x="0" y="20" width="100" height="100" transform="skewX(10)"/>')
        skew = find_one(tree, "v:skew")
        t = math.tan(math.radians(10))
        dx = t * 20 + 100
        assert skew.attributes["offset"] == f"-{dx:.6f}".rstrip("0").rstrip(".") + "px,-100px"


class TestPlacementReadsTheWrittenBox:
    """The offset rules read the box as the style holds it, rounded to the precision."""

    ELEMENTS = {
        "rect": ('<rect x="1.234" y="5.678" width="9.876" height="5.432"{}/>', "v:roundrect"),
        "circle": ('<circle cx="3.333" cy="1.777" r="2.2222"{}/>', "v:oval"),
        "ellipse": ('<ellipse cx="3.337" cy="1.771" rx="2.2262" ry="1.155"{}/>', "v:oval"),
        "text": ('<text x="1.555" y="30.123" font-size="8.25"{}>t</text>', "v:textbox"),
        "foreignObject": ('<foreignObject x="1.555" y="2.345" width="7.77" height="3.336"{}/>', "v:textbox"),
    }

    @pytest.mark.parametrize("precision", [0, 1, 2])
    @pytest.mark.parametrize("transform_list", ["skewX(25)", "skewY(-35)", "rotate(30)", "rotate(30, 5, 5)"])
    @pytest.mark.parametrize("name", list(ELEMENTS))
    def test_placement_is_computed_from_the_emitted_box(self, name, transform_list, precision):
        element, tag = self.ELEMENTS[name]
        options = ConvertOptions(precision=precision)
        plain = find_one(map_snippet(element.format(""), options)[0], tag)
        box = tuple(float(plain.style.get(key, 0)) for key in ("left", "top", "width", "height"))
        chain = transform.EMPTY_CHAIN.extend(read_ops(transform_list))
        placed = transform.place(
            transform.STRATEGY_BY_TAG[name], chain, box, (800, 800), precision, Diagnostics()
        )
        expected_style = dict(plain.style)
        if placed.origin is not None:
            expected_style["left"], expected_style["top"] = (format_number(v, precision) for v in placed.origin)
        if placed.filter is not None:
            expected_style["filter"] = placed.filter

        mapped = find_one(map_snippet(element.format(f' transform="{transform_list}"'), options)[0], tag)
        assert mapped.style == expected_style
        skew = find(mapped, "v:skew")
        assert (None if skew is None else skew.attributes) == placed.skew


class TestGroups:
    def test_transform_distribution_equivalence(self):
        grouped = '<g transform="scale(2)"><rect x="10" y="10" width="20" height="20"/><line x1="0" y1="0" x2="50" y2="0"/></g>'
        distributed = '<g><rect x="10" y="10" width="20" height="20" transform="scale(2)"/><line x1="0" y1="0" x2="50" y2="0" transform="scale(2)"/></g>'
        tree_a, _ = map_snippet(grouped)
        tree_b, _ = map_snippet(distributed)
        assert tree_a == tree_b

    def test_empty_group(self):
        tree, _ = map_snippet("<g/>")
        groups = find_all(tree, "v:group")
        assert len(groups) == 2  # root plus the mapped g
        assert groups[1].children == []

    def test_child_fill_wins_over_group_fill(self):
        tree, _ = map_snippet(
            '<g fill="red"><rect width="5" height="5" fill="blue"/></g>'
        )
        fill = find_one(tree, "v:fill")
        assert fill.attributes["color"] == "blue"

    def test_group_fill_reaches_children(self):
        tree, _ = map_snippet('<g fill="red"><rect width="5" height="5"/></g>')
        assert find_one(tree, "v:fill").attributes["color"] == "red"

    def test_group_transform_composes_with_child_transform(self):
        nested = '<g transform="translate(10, 0)"><polyline points="0,0 1,0" transform="scale(2)"/></g>'
        flat = '<polyline points="0,0 1,0" transform="translate(10, 0) scale(2)"/>'
        tree_a, _ = map_snippet(nested)
        tree_b, _ = map_snippet(flat)
        assert find_one(tree_a, "v:shape") == find_one(tree_b, "v:shape")

    def test_a_group_chain_is_composed_once(self, monkeypatch):
        calls = []
        entries = transform._entries  # each op's matrix, as Chain.extend reads it

        def counted(name, args):
            calls.append(name)
            return entries(name, args)

        monkeypatch.setattr(transform, "_entries", counted)
        rects = '<rect width="4" height="3" transform="scale(3)"/>' * 5
        tree, diagnostics = map_snippet(f'<g transform="scale(2) translate(1,2) skewX(10)">{rects}</g>')
        assert len(find_all(tree, "v:skew")) == 5 and not list(diagnostics)
        assert len(calls) == 3 + 5

    def test_group_opacity_inherited(self):
        tree, _ = map_snippet('<g opacity="0.5"><rect width="5" height="5"/></g>')
        rect = find_one(tree, "v:roundrect")
        assert rect.style["filter"] == "progid:DXImageTransform.Microsoft.Alpha(opacity=50)"

    @pytest.mark.parametrize(
        "name,group_value,child_value,probe",
        [
            ("fill", "red", "blue", lambda rect: find(rect, "v:fill").attributes["color"]),
            ("stroke", "red", "blue", lambda rect: find(rect, "v:stroke").attributes["color"]),
            ("stroke-width", "9", "2", lambda rect: find(rect, "v:stroke").attributes["weight"]),
            ("stroke-linecap", "round", "square", lambda rect: find(rect, "v:stroke").attributes["endcap"]),
            ("stroke-linejoin", "round", "bevel", lambda rect: find(rect, "v:stroke").attributes["joinstyle"]),
            ("stroke-miterlimit", "8", "4", lambda rect: find(rect, "v:stroke").attributes["miterlimit"]),
            ("stroke-opacity", "0.25", "0.5", lambda rect: find(rect, "v:stroke").attributes["opacity"]),
            ("opacity", "0.25", "0.5", lambda rect: rect.style["filter"].rsplit("=", 1)[1][:-1]),
            ("opacity", "0.5", "0.5", lambda rect: rect.style["filter"].rsplit("=", 1)[1][:-1]),
        ],
    )
    def test_child_value_survives_push_down(self, name, group_value, child_value, probe):
        tree, diagnostics = map_snippet(
            f'<g {name}="{group_value}"><rect width="5" height="5" {name}="{child_value}"/></g>'
        )
        # The child's own value wins, except that opacities compound down the group chain.
        expected = format_number(100 * float(group_value) * float(child_value)) if name == "opacity" else child_value
        assert probe(find_one(tree, "v:roundrect")) == expected
        assert list(diagnostics) == []


class TestPaintInheritance:
    """A group's paint is parsed once, and each fault in it reported once, at the group."""

    def test_dangling_group_fill_is_reported_once_at_the_group(self):
        tree, diags = map_snippet('<g fill="url(#nope)"><rect width="5" height="5"/><rect width="6" height="6"/></g>')
        assert find_all(tree, "v:fill") == []
        assert [(d.code, d.location) for d in diags] == [("DANGLING_REF", "svg/g[0]")]

    def test_bad_group_opacity_is_reported_even_with_nothing_under_it(self):
        source = wrap_svg('<g opacity="lots"/>')
        output, diags = convert_text(source)
        assert output is not None
        assert [(d.code, d.message, d.location) for d in diags] == [
            ("BAD_ATTRIBUTE", "unparseable opacity 'lots'", "svg/g[0]")
        ]
        assert convert_text(source, ConvertOptions(strict=True))[0] is None

    def test_group_linecap_reaches_a_path(self):
        tree, diags = map_snippet('<g stroke="red" stroke-linecap="round"><path d="M 0 0 L 5 5"/></g>')
        assert find(find_one(tree, "v:shape"), "v:stroke").attributes == {"color": "red", "endcap": "round"}
        assert list(diags) == []

    def test_bad_group_linecap_is_reported_once_and_not_handed_down(self):
        tree, diags = map_snippet(
            '<g stroke="red" stroke-linecap="wide"><rect width="5" height="5"/><circle r="2"/></g>'
        )
        assert [stroke.attributes for stroke in find_all(tree, "v:stroke")] == [{"color": "red"}] * 2
        assert [(d.code, d.location) for d in diags] == [("BAD_ATTRIBUTE", "svg/g[0]")]

    def test_nested_opacities_multiply(self):
        tree, _ = map_snippet(
            '<g opacity="0.5"><a href="#x" opacity="0.5"><rect width="5" height="5" opacity="0.4"/></a></g>'
        )
        assert find_one(tree, "v:roundrect").style["filter"] == "progid:DXImageTransform.Microsoft.Alpha(opacity=10)"

    def test_bad_own_opacity_leaves_the_inherited_one(self):
        tree, diags = map_snippet('<g opacity="0.5"><rect width="5" height="5" opacity="lots"/></g>')
        assert find_one(tree, "v:roundrect").style["filter"] == "progid:DXImageTransform.Microsoft.Alpha(opacity=50)"
        assert [(d.code, d.location) for d in diags] == [("BAD_ATTRIBUTE", "svg/g[0]/rect[0]")]


class TestTextAndForeignObject:
    def test_text_top_subtracts_font_size(self):
        tree, _ = map_snippet('<text x="10" y="100" font-size="40">hi</text>')
        box = find_one(tree, "v:textbox")
        assert box.style == {"left": "10", "top": "60"}
        assert box.text == "hi"

    def test_text_default_font_size_warns(self):
        tree, diags = map_snippet('<text x="0" y="100">hi</text>')
        assert find_one(tree, "v:textbox").style["top"] == "84"
        assert "DEFAULT_FONT_SIZE" in diags.codes()

    def test_an_unreadable_font_size_is_reported_once_and_16_assumed(self):
        tree, diags = map_snippet('<text x="0" y="20" font-size="12pt">hi</text>')
        assert find_one(tree, "v:textbox").style["top"] == "4"
        assert [str(d) for d in diags] == [
            "error UNSUPPORTED_UNIT: unsupported length unit 'pt' in '12pt' @svg/text[0]@font-size"
        ]

    @pytest.mark.parametrize("size", ["-5", "-5px", "-0.5"])
    def test_a_negative_font_size_is_reported_once_and_16_assumed(self, size):
        body = f'<text x="1" y="5" font-size="{size}">hi</text>'
        tree, diags = map_snippet(body)
        assert find_one(tree, "v:textbox").style == {"left": "1", "top": "-11"}
        assert [str(d) for d in diags] == [
            f"warning BAD_ATTRIBUTE: font-size '{size}' is negative @svg/text[0]@font-size"
        ]
        output, strict = convert_text(wrap_svg(body), ConvertOptions(strict=True))
        assert output is None and strict.codes() == ["BAD_ATTRIBUTE"]

    def test_a_zero_font_size_reads(self):
        tree, diags = map_snippet('<text x="1" y="5" font-size="0">hi</text>')
        assert find_one(tree, "v:textbox").style == {"left": "1", "top": "5"}
        assert not len(diags)

    def test_foreign_object_geometry_and_payload(self):
        tree, _ = map_snippet(
            '<foreignObject x="400px" y="300px" width="600px" height="400px">'
            '<div style="border:1px solid blue;">Hello</div></foreignObject>'
        )
        box = find_one(tree, "v:textbox")
        assert box.style == {"left": "400", "top": "300", "width": "600", "height": "400"}
        assert box.children[0].name == "div"
        assert box.children[0].attributes["style"] == "border:1px solid blue;"
        assert box.children[0].text == "Hello"

    def test_unit_opacity_filter(self):
        tree, _ = map_snippet('<foreignObject x="0" y="0" width="10" height="10" opacity="1"/>')
        box = find_one(tree, "v:textbox")
        assert box.style["filter"] == "progid:DXImageTransform.Microsoft.Alpha(opacity=100)"

    def test_rotated_foreign_object_filter_and_offsets(self):
        tree, diags = map_snippet(
            '<foreignObject x="400px" y="300px" width="600px" height="400px"'
            ' transform="rotate(20, 400, 300)"/>'
        )
        assert not diags.has_errors
        box = find_one(tree, "v:textbox")
        assert (
            "progid:DXImageTransform.Microsoft.Matrix("
            "M11=0.939693, M12=-0.34202, M21=0.34202, M22=0.939693, "
            "SizingMethod='auto expand')"
        ) in box.style["filter"]
        # offset = (cos*(0) - sin*(0) - 600 + 400, sin*(0) + cos*(0) - 400 + 300)
        assert box.style["left"] == "600"  # 400 - (-200)
        assert box.style["top"] == "400"  # 300 - (-100)

    def test_filter_values_round_to_two_decimals(self):
        tree, _ = map_snippet('<foreignObject x="0" y="0" width="1" height="1" transform="rotate(20)"/>')
        box = find_one(tree, "v:textbox")
        filter_text = box.style["filter"]
        values = {}
        for token in ("M11", "M12", "M21", "M22"):
            start = filter_text.index(token) + len(token) + 1
            end = filter_text.index(",", start)
            values[token] = round(float(filter_text[start:end]), 2)
        assert values == {"M11": 0.94, "M12": -0.34, "M21": 0.34, "M22": 0.94}


class TestReferences:
    REF_DOC = (
        '<defs><rect id="MyRect" x="100" y="200" width="600" height="200"'
        ' fill="blue" stroke="red"/></defs><use xlink:href="#MyRect"/>'
    )

    def test_defs_is_hidden_div(self):
        tree, _ = map_snippet(self.REF_DOC, view_box="0 0 1000 1500", size=(1000, 1500))
        defs_div = tree.children[0]
        assert defs_div.tag == "div"
        assert defs_div.style == {"visibility": "hidden"}
        assert defs_div.children[0].tag == "v:roundrect"

    def test_use_contains_mapped_copy(self):
        tree, diags = map_snippet(self.REF_DOC, view_box="0 0 1000 1500", size=(1000, 1500))
        assert not diags.has_errors
        use_div = tree.children[1]
        assert use_div.tag == "div"
        copy = use_div.children[0]
        assert copy.tag == "v:roundrect"
        assert copy.style == {"left": "100", "top": "200", "width": "600", "height": "200"}

    def test_use_geometry_attributes(self):
        tree, _ = map_snippet(
            '<defs><rect id="r" width="5" height="5"/></defs>'
            '<use xlink:href="#r" x="10" y="20" width="30" height="40"/>'
        )
        use_div = tree.children[1]
        assert use_div.style == {"left": "10", "top": "20", "width": "30", "height": "40"}

    def test_use_hands_its_paint_to_the_copy(self):
        tree, diags = map_snippet(
            '<defs><rect id="r" width="2" height="2"/></defs>'
            '<use xlink:href="#r" fill="red" stroke="blue" opacity="0.5"/>'
        )
        assert not len(diags)
        copy = tree.children[1].children[0]
        assert find(copy, "v:fill").attributes == {"color": "red"}
        assert find(copy, "v:stroke").attributes == {"color": "blue"}
        assert copy.style["filter"] == "progid:DXImageTransform.Microsoft.Alpha(opacity=50)"

    def test_a_use_paint_fault_is_reported_once_at_the_use(self):
        tree, diags = map_snippet(
            '<defs><g id="g"><rect width="2" height="2"/><circle r="1"/></g></defs>'
            '<use xlink:href="#g" opacity="lots" fill-opacity="0.5"/>'
        )
        assert [(d.code, d.location) for d in diags] == [
            ("UNSUPPORTED_ATTRIBUTE", "svg/use[1]"), ("BAD_ATTRIBUTE", "svg/use[1]")
        ]
        # whether or not the use resolves
        tree, diags = map_snippet('<use opacity="lots"/><use xlink:href="#nope" opacity="lots"/>')
        assert [(d.code, d.location) for d in diags] == [
            ("BAD_ATTRIBUTE", "svg/use[0]"), ("MISSING_HREF", "svg/use[0]"),
            ("BAD_ATTRIBUTE", "svg/use[1]"), ("DANGLING_REF", "svg/use[1]"),
        ]

    def test_dangling_use(self):
        tree, diags = map_snippet('<use xlink:href="#nope"/>')
        assert "DANGLING_REF" in diags.codes()

    def test_use_without_href_warns(self):
        tree, diags = map_snippet("<use/>")
        assert "MISSING_HREF" in diags.codes()
        assert tree.children[0].tag == "div"

    def test_circular_use_is_reported(self):
        tree, diags = map_snippet('<g id="loop"><use xlink:href="#loop"/></g>')
        assert "DANGLING_REF" in diags.codes()

    def test_empty_xlink_href_is_the_reference(self):
        tree, diags = map_snippet('<rect id="r" width="1" height="1"/><use xlink:href="" href="#r"/>')
        assert [child.tag for child in tree.children] == ["v:roundrect"]
        assert [(d.code, d.message, d.location) for d in diags] == [
            ("DANGLING_REF", "unresolvable reference ''", "svg/use[1]")
        ]


class TestSharedCopies:
    """A reference target is mapped once per chain and paint; its copies share the subtree where that is exact."""

    def test_a_sprite_sheet_maps_its_paths_once(self, monkeypatch):
        calls = []
        map_path = _MAPPERS["path"]
        monkeypatch.setitem(_MAPPERS, "path", lambda node, ctx: calls.append(node) or map_path(node, ctx))
        paths = "".join(f'<path d="M {index} 0 L {index} 9"/>' for index in range(20))
        copies = "".join(f'<use xlink:href="#i" x="{index}"/>' for index in range(1000))
        tree, diags = map_snippet(f'<defs><g id="i">{paths}</g></defs>{copies}')
        assert not len(diags)
        assert len(calls) == 20
        hidden, first, second = tree.children[:3]
        assert first.children[0] is second.children[0] is hidden.children[0]
        assert len(find_all(tree, "v:shape")) == 20 * 1001

    def test_a_faulty_target_reports_at_each_reference(self):
        tree, diags = map_snippet(
            '<defs><rect id="r" width="1em" height="2"/></defs><use xlink:href="#r"/><use xlink:href="#r"/>'
        )
        assert [(d.code, d.location) for d in diags] == [
            ("UNSUPPORTED_UNIT", "svg/defs[0]/rect[0]@width"),
            ("UNSUPPORTED_UNIT", "svg/use[1]@width"),
            ("UNSUPPORTED_UNIT", "svg/use[2]@width"),
        ]

    def test_each_chain_and_paint_has_its_own_copy(self):
        tree, diags = map_snippet(
            '<defs><rect id="r" width="2" height="2"/></defs>'
            '<use xlink:href="#r"/>'
            '<g transform="translate(1,2)"><use xlink:href="#r"/></g>'
            '<use xlink:href="#r" fill="red"/>'
            '<g opacity="0.5"><use xlink:href="#r"/></g>'
            '<g transform="scale(2)"><use xlink:href="#r"/></g>'
            '<g transform="scale(2)"><use xlink:href="#r"/></g>'
        )
        assert not len(diags)
        copies = find_all(tree, "v:roundrect")
        assert len(copies) == 7
        hidden, plain, moved, red, faded, scaled, scaled_again = copies
        assert plain is hidden
        assert scaled_again is scaled  # an equal chain under another group
        assert len({id(copy) for copy in copies}) == 5
        assert moved.style["left"] == "1" and find(red, "v:fill").attributes == {"color": "red"}
        assert "Alpha(opacity=50)" in faded.style["filter"] and find(scaled, "v:skew") is not None

    DEEP = "<g>" * 9 + '<rect width="1" height="1"/>' + "</g>" * 9

    @pytest.mark.parametrize(
        "defs,cut_below_use,digest",
        [
            # the copy itself reaches 10 levels below its target
            (f'<g id="x">{DEEP}</g>', "/g[0]" * 8,
             "acc2c733471268688362119ecc0d1157861d5dd7b9e95cd24c576522c29bc6a8"),
            # its depth comes from a copy it reuses
            (f'<g id="y">{DEEP}</g><g id="x"><use xlink:href="#y"/></g>', "/use[0]" + "/g[0]" * 6,
             "8e4f3b0d7f4dea6d3d2e0cad788bad80b9044cb1cca42ce8fa58ba965ead9e4e"),
            # its depth comes before a shallower copy it maps
            (f'<g id="x">{DEEP}<use xlink:href="#y"/></g><rect id="y" width="1" height="1"/>', "/g[0]" * 8,
             "510458358e288d5c0bf3e5433e6882f9c09a3df2d7c9b9c9ef994922fc6079d5"),
        ],
        ids=["own-depth", "reused-depth", "depth-before-a-copy"],
    )
    def test_a_copy_reused_past_the_depth_cap_is_cut_where_it_was(self, defs, cut_below_use, digest):
        # The copy from defs fits where the shallow use reuses it; under 190
        # groups it would pass the cap, so it is mapped again and cut.
        deep_use = "<g>" * 190 + '<use xlink:href="#x"/>' + "</g>" * 190
        text = f'<svg viewBox="0 0 9 9"><defs>{defs}</defs><use xlink:href="#x"/>{deep_use}</svg>'
        output, diags = convert_text(text)
        cut_at = "svg/g[2]" + "/g[0]" * 189 + "/use[0]" + cut_below_use
        assert [(d.code, d.location) for d in diags] == [("TOO_DEEP", cut_at)]
        assert hashlib.sha256(output.encode("utf-8")).hexdigest() == digest


def counting(monkeypatch, owner, name) -> list:
    """Rebind owner.name to a wrapper that appends its first argument to the returned list."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda first, *rest: calls.append(first) or original(first, *rest))
    return calls


class TestPerConversionMemos:
    """A gradient fill is resolved, and a path with an id parsed, once per conversion, where that is exact.

    Only a result that reported nothing is kept, so a fault is computed and
    reported again at each place it recurs.
    """

    STOPS = '<stop offset="0" stop-color="{}"/><stop offset="1" stop-color="{}"/>'

    def test_a_faulty_gradient_is_reported_at_each_shape_it_fills(self, monkeypatch):
        calls = counting(monkeypatch, style, "resolve_fill_reference")
        three = self.STOPS.format("red", "blue") + '<stop offset="1" stop-color="gold"/>'
        tree, diags = map_snippet(
            f'<defs><linearGradient id="g">{three}</linearGradient></defs>'
            '<rect width="2" height="2" fill="url(#g)"/><circle r="1" fill="url(#g)"/>'
        )
        message = "gradient needs exactly 2 stops, got 3"
        assert [(d.code, d.message, d.location) for d in diags] == [
            ("UNSUPPORTED_GRADIENT", message, "svg/rect[1]"), ("UNSUPPORTED_GRADIENT", message, "svg/circle[2]")
        ]
        assert find_all(tree, "v:fill") == [] and len(calls) == 2

    def test_a_gradient_shared_by_two_shapes_gives_equal_fills(self, monkeypatch):
        calls = counting(monkeypatch, style, "resolve_fill_reference")
        tree, diags = map_snippet(
            f'<defs><linearGradient id="g">{self.STOPS.format("red", "blue")}</linearGradient></defs>'
            '<rect width="2" height="2" fill="url(#g)"/><g><circle r="1" fill="url(#g)"/></g>'
        )
        assert not len(diags)
        rect, circle = tree.children[1], tree.children[2].children[0]
        assert rect.leaves == circle.leaves == ['<v:fill type="gradient" color="red" color2="blue" angle="270"/>']
        assert len(calls) == 1

    TEXT_PATHS = (
        '<text font-size="10"><textPath xlink:href="#p">one</textPath></text>'
        '<g transform="translate(3,4)"><text font-size="10"><textPath xlink:href="#p">two</textPath></text></g>'
    )

    def test_a_bad_d_named_by_two_text_paths_reports_as_the_parent_did(self, monkeypatch):
        calls = counting(monkeypatch, mappers, "parse_path_data")
        output, diags = convert_text(wrap_svg(f'<defs><path id="p" d="M 0 0 L 10"/></defs>{self.TEXT_PATHS}'))
        message = "command L expects 2 coordinates"
        assert [(d.code, d.message, d.location) for d in diags] == [
            ("BAD_PATH", message, "svg/defs[0]/path[0]@d"),
            ("BAD_PATH", message, "svg/text[1]@d"),
            ("BAD_PATH", message, "svg/g[2]/text[0]@d"),
        ]
        assert len(calls) == 3
        # the parent's output, captured before the memo
        digest = "54e2167c4ce9bf278627f959e89ce3bcff66714f02bd2bacb8e0fa85e2ae0ea5"
        assert hashlib.sha256(output.encode("utf-8")).hexdigest() == digest

    def test_a_path_named_by_two_text_paths_is_parsed_once(self, monkeypatch):
        calls = counting(monkeypatch, mappers, "parse_path_data")
        output, diags = convert_text(wrap_svg(f'<defs><path id="p" d="M 0 0 L 5 5"/></defs>{self.TEXT_PATHS}'))
        assert not len(diags) and calls == ["M 0 0 L 5 5"]
        digest = "f324d16d1866f4b67306033bbeb6757a34d1e857347f20e38bcda6e11dd79914"
        assert hashlib.sha256(output.encode("utf-8")).hexdigest() == digest

    def test_a_path_without_an_id_is_parsed_each_time(self, monkeypatch):
        calls = counting(monkeypatch, mappers, "parse_path_data")
        tree, diags = map_snippet('<defs><g id="i"><path d="M 0 0 L 1 1"/></g></defs>'
                                  '<use xlink:href="#i"/><use xlink:href="#i" fill="red"/>')
        assert not len(diags) and len(calls) == 2

    def test_two_conversions_resolve_their_own_gradients(self):
        for colors in (("red", "blue"), ("gold", "teal")):
            tree, diags = map_snippet(
                f'<defs><linearGradient id="g">{self.STOPS.format(*colors)}</linearGradient></defs>'
                '<rect width="2" height="2" fill="url(#g)"/>'
            )
            assert not len(diags)
            fill = find(tree.children[1], "v:fill").attributes
            assert (fill["color"], fill["color2"]) == colors


class TestTextPath:
    SOURCE = (
        '<defs><path id="MyPath" d="M 100 200 C 200 100 300 0 400 100'
        ' C 500 200 600 300 700 200 C 800 100 900 100 900 100"/></defs>'
        '<text font-family="Verdana" font-size="40px">'
        '<textPath xlink:href="#MyPath">We go up, then we go down</textPath></text>'
    )

    def test_figure_6_3_structure(self):
        tree, diags = map_snippet(self.SOURCE, view_box="0 0 1000 300", size=(1000, 300))
        assert not diags.has_errors
        shapes = find_all(tree, "v:shape")
        augmented = shapes[-1]
        flag = find(augmented, "v:path")
        assert flag.attributes == {"textpathok": "t"}
        text_path = find(augmented, "v:textpath")
        assert text_path.attributes["on"] == "t"
        assert text_path.attributes["string"] == "We go up, then we go down"
        assert text_path.attributes["style"] == "FONT-SIZE:40;FONT-FAMILY:Verdana"

    def test_a_negative_font_size_is_reported_once_and_writes_no_size(self):
        tree, diags = map_snippet(
            '<defs><path id="p" d="M 0 0 L 9 9"/></defs>'
            '<text font-family="Verdana" font-size="-5"><textPath xlink:href="#p">x</textPath></text>'
            '<text font-size="-5"><textPath xlink:href="#p">y</textPath></text>'
        )
        first, second = find_all(tree, "v:textpath")
        assert first.attributes["style"] == "FONT-FAMILY:Verdana"
        assert "style" not in second.attributes
        assert [str(d) for d in diags] == [
            f"warning BAD_ATTRIBUTE: font-size '-5' is negative @svg/text[{index}]@font-size" for index in (1, 2)
        ]

    def test_empty_payload(self):
        tree, _ = map_snippet(
            '<defs><path id="p" d="M 0 0"/></defs>'
            '<text font-size="12"><textPath xlink:href="#p"></textPath></text>'
        )
        text_path = find_one(tree, "v:textpath")
        assert text_path.attributes["string"] == ""

    def test_dangling_path_reference(self):
        tree, diags = map_snippet('<text><textPath xlink:href="#nope">x</textPath></text>')
        assert "DANGLING_REF" in diags.codes()

    def test_reference_to_non_path(self):
        tree, diags = map_snippet(
            '<defs><rect id="r" width="1" height="1"/></defs>'
            '<text><textPath xlink:href="#r">x</textPath></text>'
        )
        assert "DANGLING_REF" in diags.codes()

    def test_its_own_faults_are_located_at_the_text_path(self):
        source = (
            '<defs><path id="p" d="M 0 0 L 9 9"/></defs>'
            '<text font-size="8"><textPath xlink:href="#p" transform="rotate(1, 2)">x</textPath></text>'
            '<text font-size="8"><textPath xlink:href="#gone">x</textPath></text>'
            '<text font-size="8q"><textPath xlink:href="#p">x</textPath></text>'
        )
        _, diags = map_snippet(source)
        assert [(d.code, d.location) for d in diags] == [
            ("BAD_TRANSFORM", "svg/text[1]/textPath[0]@transform"),
            ("DANGLING_REF", "svg/text[2]/textPath[0]"),
            ("UNSUPPORTED_UNIT", "svg/text[3]@font-size"),
        ]

    def test_dropped_text_attributes_are_reported(self):
        source = (
            '<defs><path id="p" d="M 0 0 L 9 9"/></defs>'
            '<text transform="rotate(30)" fill-opacity="0.5" opacity="0.5" font-size="8">'
            '<textPath xlink:href="#p">x</textPath></text>'
        )
        tree, diags = map_snippet(source)
        shape = find_all(tree, "v:shape")[-1]
        assert find_all(shape, "v:skew") == [] and "filter" not in shape.style
        message = "{} on a text holding a textPath has no VML mapping and is ignored"
        assert [(d.severity, d.code, d.message, d.location) for d in diags] == [
            ("warning", "UNSUPPORTED_ATTRIBUTE", message.format(name), "svg/text[1]")
            for name in ("opacity", "fill-opacity", "transform")
        ]
        strict_output, _ = convert_text(wrap_svg(source), ConvertOptions(strict=True))
        assert strict_output is None


class TestDroppedTextAndUseAttributes:
    """Attributes that mapping drops give one UNSUPPORTED_ATTRIBUTE warning each, at their element."""

    VALUES = {
        "x": "4", "y": "5", "dx": "2", "dy": "3", "startOffset": "50%", "transform": "scale(2)",
        "fill": "url(#nope)", "stroke": "blue", "stroke-width": "2", "stroke-linecap": "round",
        "stroke-linejoin": "bevel", "stroke-miterlimit": "4", "stroke-opacity": "0.5",
    }
    PAINT = ("fill", *STROKE_TABLE)

    @pytest.mark.parametrize(
        "element,names,owner,location",
        [
            ('<text x="1" y="9" font-size="4"{}>t</text>', ("dx", "dy"), "a text", "svg/text[1]"),
            (
                '<text font-size="8"{}><textPath xlink:href="#p">x</textPath></text>',
                ("x", "y", "dx", "dy"),
                "a text holding a textPath",
                "svg/text[1]",
            ),
            (
                '<text font-size="8"><textPath xlink:href="#p"{}>x</textPath></text>',
                ("startOffset",),
                "a textPath",
                "svg/text[1]/textPath[0]",
            ),
            ('<use xlink:href="#p"{}/>', ("transform",), "a use", "svg/use[1]"),
            ('<text x="1" y="9" font-size="4"{}>t</text>', PAINT, "a text", "svg/text[1]"),
            (
                '<text font-size="8"{}><textPath xlink:href="#p">x</textPath></text>',
                PAINT,
                "a text holding a textPath",
                "svg/text[1]",
            ),
            (
                '<text font-size="8"><textPath xlink:href="#p"{}>x</textPath></text>',
                PAINT,
                "a textPath",
                "svg/text[1]/textPath[0]",
            ),
            ('<foreignObject width="9" height="9"{}/>', PAINT, "a foreignObject", "svg/foreignObject[1]"),
        ],
        ids=["text", "text-on-path", "textPath", "use", "text-paint", "text-on-path-paint", "textPath-paint",
             "foreignObject-paint"],
    )
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_reported_at_the_element(self, element, names, owner, location, strict):
        attributes = "".join(f' {name}="{self.VALUES[name]}"' for name in names)
        source = '<defs><path id="p" d="M 0 0 L 9 9"/></defs>' + element
        output, diagnostics = convert_text(wrap_svg(source.format(attributes)), ConvertOptions(strict=strict))
        message = "{} on {} has no VML mapping and is ignored"
        expected = [("UNSUPPORTED_ATTRIBUTE", message.format(name, owner), location) for name in names]
        assert [(d.code, d.message, d.location) for d in diagnostics] == expected
        assert output == (None if strict else convert_text(wrap_svg(source.format("")))[0])

    @pytest.mark.parametrize(
        "element",
        [
            '<text x="1" y="9" font-size="4">t</text>',
            '<text font-size="8"><textPath xlink:href="#p">x</textPath></text>',
            '<foreignObject width="9" height="9"/>',
        ],
        ids=["text", "text-on-path", "foreignObject"],
    )
    def test_inherited_paint_is_not_reported(self, element):
        paint = "".join(f' {name}="{self.VALUES[name]}"' for name in self.PAINT if name != "fill")
        source = f'<defs><path id="p" d="M 0 0 L 9 9"/></defs><g fill="red"{paint}>{element}</g>'
        output, diagnostics = convert_text(wrap_svg(source), ConvertOptions(strict=True))
        assert output is not None and not len(diagnostics)


class TestAnchor:
    def test_anchor_wraps_children(self):
        tree, _ = map_snippet(
            '<a xlink:href="http://x"><rect width="5" height="5"/></a>'
        )
        anchor = find_one(tree, "a")
        assert anchor.attributes["href"] == "http://x"
        assert anchor.children[0].tag == "v:roundrect"

    def test_anchor_without_href_warns(self):
        tree, diags = map_snippet('<a><rect width="5" height="5"/></a>')
        anchor = find_one(tree, "a")
        assert "href" not in anchor.attributes
        assert "MISSING_HREF" in diags.codes()

    def test_empty_href_is_kept(self):
        tree, diags = map_snippet('<a xlink:href="" href="http://x"><rect width="5" height="5"/></a>')
        assert find_one(tree, "a").attributes["href"] == ""
        assert diags.codes() == []

    def test_anchor_inside_group(self):
        tree, _ = map_snippet('<g><a xlink:href="#x"><circle cx="1" cy="1" r="1"/></a></g>')
        groups = find_all(tree, "v:group")
        anchor = find_one(groups[1], "a")
        assert anchor.children[0].tag == "v:oval"

    @pytest.mark.parametrize(
        "attributes,codes",
        [
            ('fill="red" stroke="blue" stroke-width="2" opacity="0.5"', []),
            ('transform="scale(2) translate(2, 1)"', []),
            (
                'fill="url(#nope)" stroke-width="nan" stroke-linecap="wide" opacity="lots"',
                ["DANGLING_REF", "UNSUPPORTED_UNIT", "BAD_ATTRIBUTE", "BAD_ATTRIBUTE"],
            ),
        ],
        ids=["paint", "transform", "faulty-paint"],
    )
    def test_anchor_distributes_as_a_group_does(self, attributes, codes):
        children = '<rect x="1" width="2" height="1" fill="green"/><circle r="1"/><polyline points="0,0 1,1"/>'
        anchored, anchor_diags = map_snippet(f'<a href="#x" {attributes}>{children}</a>')
        grouped, group_diags = map_snippet(f'<g {attributes}>{children}</g>')
        assert find_one(anchored, "a").children == find_all(grouped, "v:group")[1].children
        # One report per fault, at the carrier itself: svg/a[0] or svg/g[0], with or without its @attribute.
        reports = [(d.code, d.message, d.location.replace("svg/a[0]", "svg/g[0]")) for d in anchor_diags]
        assert reports == [(d.code, d.message, d.location) for d in group_diags]
        assert [code for code, _, _ in reports] == codes
        assert all(location.split("@")[0] == "svg/g[0]" for _, _, location in reports)


class TestStrokeFillOnShapes:
    def test_example_5_2_children(self):
        tree, _ = map_snippet(
            '<rect x="1" y="1" width="1198" height="398" fill="red" stroke="blue" stroke-width="2"/>'
        )
        rect = find_one(tree, "v:roundrect")
        fill = find(rect, "v:fill")
        stroke = find(rect, "v:stroke")
        assert fill.attributes == {"color": "red"}
        assert stroke.attributes == {"color": "blue", "weight": "2"}

    def test_fill_none_sets_filled_flag(self):
        tree, _ = map_snippet('<rect width="5" height="5" fill="none"/>')
        rect = find_one(tree, "v:roundrect")
        assert rect.attributes["filled"] == "f"
        assert find(rect, "v:fill") is None

    def test_gradient_fill(self):
        tree, diags = map_snippet(
            '<defs><linearGradient id="grad1" x1="0%" y1="0%" x2="100%" y2="0%">'
            '<stop offset="0%" stop-color="red"/><stop offset="100%" stop-color="blue"/>'
            '</linearGradient></defs>'
            '<rect width="10" height="10" fill="url(#grad1)"/>'
        )
        assert not diags.has_errors
        rect = find_all(tree, "v:roundrect")[-1]
        fill = find(rect, "v:fill")
        assert fill.attributes["type"] == "gradient"
        assert fill.attributes["color"] == "red"
        assert fill.attributes["color2"] == "blue"

    def test_stroke_and_fill_children_only_under_shapes(self):
        tree, _ = map_snippet(
            '<text x="1" y="9" font-size="4" stroke="red" fill="blue">t</text>'
            '<foreignObject x="0" y="0" width="4" height="4" fill="blue"/>'
        )
        for tag in ("v:textbox",):
            for box in find_all(tree, tag):
                assert find_all(box, "v:stroke") == []
                assert find_all(box, "v:fill") == []

    def test_at_most_one_stroke_and_fill_child(self):
        tree, _ = map_snippet(
            '<g stroke="green" fill="yellow"><rect width="5" height="5" fill="red"'
            ' stroke="blue" stroke-width="2" stroke-linecap="round" stroke-opacity="0.5"/></g>'
        )
        rect = find_one(tree, "v:roundrect")
        assert len(find_all(rect, "v:stroke")) == 1
        assert len(find_all(rect, "v:fill")) == 1

    @pytest.mark.parametrize(
        "width,message",
        [
            ("nan", "invalid length 'nan'"),
            ("inf", "invalid length 'inf'"),
            ("2em", "unsupported length unit 'em' in '2em'"),
            ("1e3", "exponent notation is not supported in '1e3'"),
            ("2E-3px", "exponent notation is not supported in '2E-3px'"),
        ],
    )
    def test_bad_stroke_width_is_reported_and_omitted(self, width, message):
        tree, diags = map_snippet(f'<rect width="5" height="5" stroke="blue" stroke-width="{width}"/>')
        rect = find_one(tree, "v:roundrect")
        assert find(rect, "v:stroke").attributes == {"color": "blue"}
        assert [(d.severity, d.code, d.message, d.location) for d in diags] == [
            ("error", "UNSUPPORTED_UNIT", message, "svg/rect[0]@stroke-width")
        ]

    def test_inherited_bad_stroke_width_is_reported_once_at_the_group(self):
        tree, diags = map_snippet('<g stroke-width="nan"><rect width="5" height="5"/><circle r="2"/></g>')
        assert find_all(tree, "v:stroke") == []
        assert [(d.code, d.location) for d in diags] == [("UNSUPPORTED_UNIT", "svg/g[0]@stroke-width")]

    @pytest.mark.parametrize("cap,endcap", [("butt", "flat"), ("round", "round"), ("square", "square")])
    def test_linecap_takes_the_vml_name(self, cap, endcap):
        tree, diags = map_snippet(f'<rect width="5" height="5" stroke-linecap="{cap}"/>')
        assert find(find_one(tree, "v:roundrect"), "v:stroke").attributes == {"endcap": endcap}
        assert list(diags) == []

    @pytest.mark.parametrize(
        "source",
        [
            '<rect width="5" height="5" stroke="none"/>',
            '<g stroke="none"><rect width="5" height="5"/></g>',
            '<a href="#x" stroke="none"><rect width="5" height="5"/></a>',
        ],
        ids=["own", "from-g", "from-a"],
    )
    def test_stroke_none_sets_stroked_flag(self, source):
        tree, diags = map_snippet(source)
        rect = find_one(tree, "v:roundrect")
        assert rect.attributes["stroked"] == "f"
        assert find(rect, "v:stroke") is None
        assert list(diags) == []

    def test_stroke_properties_inherit(self):
        tree, diags = map_snippet(
            '<g stroke="red" stroke-linecap="round"><a href="#x" stroke-linejoin="bevel" stroke-miterlimit="8"'
            ' stroke-opacity="0.5"><path d="M 0 0 L 5 5"/></a></g>'
        )
        stroke = find(find_one(tree, "v:shape"), "v:stroke")
        assert stroke.attributes == {
            "color": "red", "endcap": "round", "joinstyle": "bevel", "miterlimit": "8", "opacity": "0.5"
        }
        assert list(diags) == []

    def test_own_stroke_overrides_an_inherited_none(self):
        tree, _ = map_snippet('<g stroke="none"><rect width="5" height="5" stroke="red"/></g>')
        rect = find_one(tree, "v:roundrect")
        assert "stroked" not in rect.attributes
        assert find(rect, "v:stroke").attributes == {"color": "red"}

    def test_unchecked_stroke_values_are_reported_and_not_written(self):
        source = '<rect width="5" height="5" stroke-miterlimit="abc" stroke-linejoin="arcs" stroke-linecap="wide"/>'
        tree, diags = map_snippet(source)
        assert find(find_one(tree, "v:roundrect"), "v:stroke") is None
        assert [(d.code, d.message, d.location) for d in diags] == [
            ("BAD_ATTRIBUTE", "stroke-miterlimit 'abc' is not a number of at least 1", "svg/rect[0]"),
            ("BAD_ATTRIBUTE", "stroke-linejoin 'arcs' is not one of miter, round, bevel", "svg/rect[0]"),
            ("BAD_ATTRIBUTE", "stroke-linecap 'wide' is not one of butt, round, square", "svg/rect[0]"),
        ]
        assert convert_text(wrap_svg(source), ConvertOptions(strict=True))[0] is None

    @pytest.mark.parametrize(
        "source,location",
        [
            ('<rect width="2" height="1" stroke="red" stroke-width="-2"/>', "svg/rect[0]"),
            ('<g stroke-width="-2"><rect width="2" height="1" stroke="red"/></g>', "svg/g[0]"),
        ],
        ids=["rect", "group"],
    )
    def test_a_negative_stroke_width_is_reported_and_not_written(self, source, location):
        tree, diags = map_snippet(source)
        assert find(find_one(tree, "v:roundrect"), "v:stroke").attributes == {"color": "red"}
        assert [(d.severity, d.code, d.message, d.location) for d in diags] == [
            ("warning", "BAD_ATTRIBUTE", "stroke-width '-2' is negative", location)
        ]
        assert convert_text(wrap_svg(source), ConvertOptions(strict=True))[0] is None

    @pytest.mark.parametrize(
        "value,written,message",
        [
            ("2", "1", "stroke-opacity 2 outside [0, 1], clamped"),
            ("-0.5", "0", "stroke-opacity -0.5 outside [0, 1], clamped"),
            ("half", None, "unparseable stroke-opacity 'half'"),
        ],
    )
    def test_bad_stroke_opacity_is_reported_at_the_element(self, value, written, message):
        source = f'<rect width="5" height="5" stroke="blue" stroke-opacity="{value}"/>'
        tree, diags = map_snippet(source)
        stroke = find(find_one(tree, "v:roundrect"), "v:stroke")
        assert stroke.attributes.get("opacity") == written
        assert [(d.severity, d.code, d.message, d.location) for d in diags] == [
            ("warning", "BAD_ATTRIBUTE", message, "svg/rect[0]")
        ]
        assert convert_text(wrap_svg(source), ConvertOptions(strict=True))[0] is None


class TestFillOpacity:
    """fill-opacity has no VML mapping: every element that carries it reports it."""

    @pytest.mark.parametrize(
        "element",
        [
            '<text x="1" y="20" font-size="10"{}>t</text>',
            '<foreignObject width="1" height="1"{}/>',
            '<g{}><rect width="1" height="1"/></g>',
            '<a href="#x"{}><rect width="1" height="1"/></a>',
        ],
        ids=["text", "foreignObject", "g", "a"],
    )
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_reported_at_the_element(self, element, strict):
        options = ConvertOptions(strict=strict)
        output, diagnostics = convert_text(wrap_svg(element.format(' fill-opacity="0.5"')), options)
        tag = element[1:].split(" ", 1)[0].split("{", 1)[0]
        assert [(d.code, d.message, d.location) for d in diagnostics] == [
            ("UNSUPPORTED_ATTRIBUTE", "fill-opacity has no VML mapping and is ignored", f"svg/{tag}[0]")
        ]
        assert output == (None if strict else convert_text(wrap_svg(element.format("")))[0])


HUGE = "1" + "0" * 400  # overflows a float
LARGE = "1" + "0" * 200  # finite, but its square overflows


class TestNonFiniteTransforms:
    """Transform arguments and products that overflow never reach the output."""

    def convert(self, body):
        output, diagnostics = convert_text(wrap_svg(body))
        assert output is not None
        assert "inf" not in output and "nan" not in output
        return output, [(d.code, d.message, d.location) for d in diagnostics]

    @pytest.mark.parametrize("function", ["rotate", "skewX", "skewY"])
    def test_overflowing_angle_is_rejected(self, function):
        _, diagnostics = self.convert(f'<rect width="1" height="1" transform="{function}({HUGE})"/>')
        assert diagnostics == [
            ("BAD_TRANSFORM", f"argument out of range in {function}({HUGE})", "svg/rect[0]@transform")
        ]

    def test_overflowing_rotate_centre_is_rejected(self):
        _, diagnostics = self.convert(f'<rect width="1" height="1" transform="rotate(10,{HUGE},0)"/>')
        assert diagnostics == [
            ("BAD_TRANSFORM", f"argument out of range in rotate(10,{HUGE},0)", "svg/rect[0]@transform")
        ]

    def test_overflowing_translate_is_rejected(self):
        _, diagnostics = self.convert(f'<rect width="1" height="1" transform="translate({HUGE})"/>')
        assert diagnostics == [
            ("BAD_TRANSFORM", f"argument out of range in translate({HUGE})", "svg/rect[0]@transform")
        ]

    @pytest.mark.parametrize(
        "element",
        [
            '<rect width="1" height="1"{}/>',
            '<ellipse rx="1" ry="2"{}/>',
            '<path d="M 0 0 L 1 1"{}/>',
            '<text x="1" y="20" font-size="10"{}>t</text>',
            '<foreignObject width="1" height="1"{}/>',
        ],
        ids=["rect", "ellipse", "path", "text", "foreignObject"],
    )
    def test_overflowing_product_leaves_the_element_untransformed(self, element):
        output, diagnostics = self.convert(element.format(f' transform="scale({LARGE}) scale({LARGE})"'))
        untransformed, _ = self.convert(element.format(""))
        tag = element[1:].split(" ", 1)[0]
        assert output == untransformed
        assert diagnostics == [
            ("BAD_TRANSFORM", "transform overflows to a non-finite value; ignored", f"svg/{tag}[0]")
        ]

    def test_overflowing_position_leaves_the_box_untransformed(self):
        big = "1" + "0" * 308  # finite, but twice it is not
        twice = f' transform="translate({big}) translate({big})"'
        cases = [
            (f'<rect x="{big}" width="1" height="1"{{}}/>', f' transform="translate({big})"'),
            ('<path d="M 0 0 L 1 1"{}/>', twice),
            ('<line x2="1" y2="1"{}/>', twice),
            ('<polyline points="0,0 1,1"{}/>', twice),
            ('<polygon points="0,0 1,1 1,0"{}/>', twice),
            (f'<polygon points="0,0 {big},1"{{}}/>', ' transform="scale(10)"'),
        ]
        for element, transform in cases:
            output, diagnostics = self.convert(element.format(transform))
            untransformed, _ = self.convert(element.format(""))
            tag = element[1:].split(" ", 1)[0]
            assert output == untransformed
            assert diagnostics == [
                ("BAD_TRANSFORM", "transform overflows to a non-finite value; ignored", f"svg/{tag}[0]")
            ]


BIG = "1" + "0" * 308  # 309 digits: finite, but twice it is not


class TestNonFiniteBoxes:
    """Box arithmetic on finite lengths that overflows skips the element."""

    @pytest.mark.parametrize(
        "element,message",
        [
            (f'<circle r="{BIG}"/>', "box overflows to a non-finite value; skipped"),
            (f'<text y="-{BIG}" font-size="{BIG}">t</text>', "top overflows to a non-finite value; skipped"),
        ],
        ids=["circle-radius", "text-top"],
    )
    def test_overflowing_box_is_reported_and_skipped(self, element, message):
        output, diagnostics = convert_text(wrap_svg(element))
        assert "inf" not in output and "nan" not in output
        assert output == convert_text(wrap_svg(""))[0]
        tag = element[1:].split(" ", 1)[0]
        assert [(d.severity, d.code, d.message, d.location) for d in diagnostics] == [
            ("error", "DEGENERATE_SHAPE", message, f"svg/{tag}[0]")
        ]
        strict_output, _ = convert_text(wrap_svg(element), ConvertOptions(strict=True))
        assert strict_output is None


class TestDispatchTotality:
    def test_every_implemented_tag_has_a_mapping(self):
        handled = set(_MAPPERS) | {"textPath", "linearGradient", "stop"}
        assert IMPLEMENTED_TAGS <= handled

    def test_unknown_elements_warn_and_produce_no_output(self):
        tree, diags = map_snippet("<desc>meta</desc>")
        assert tree.children == []
        assert diags.codes() == ["UNKNOWN_ELEMENT"]

    def test_orphan_text_path_is_skipped(self):
        tree, diags = map_snippet('<path id="p" d="M 0 0 L 1 1"/><textPath xlink:href="#p">x</textPath>')
        assert [child.tag for child in tree.children] == ["v:shape"]
        assert [(d.code, d.location) for d in diags] == [("SKIPPED_ELEMENT", "svg/textPath[1]")]


class TestDeterminism:
    SOURCE = wrap_svg(
        '<g fill="red" transform="translate(3,4)">'
        '<rect x="1" y="2" width="30" height="40" rx="3"/>'
        '<circle cx="9" cy="9" r="4" stroke="black"/>'
        '<polyline points="0,0 4,4 8,0" transform="rotate(12)"/>'
        "</g>"
    )

    def test_identical_runs_produce_identical_trees(self):
        doc_a = parse_svg(self.SOURCE)
        doc_b = parse_svg(self.SOURCE)
        tree_a, _ = map_document(doc_a)
        tree_b, _ = map_document(doc_b)
        assert tree_a == tree_b


def snapshot(node):
    """Everything of a parsed node that mapping could change, attribute order included."""
    children = [snapshot(child) for child in node.children]
    return (node.tag, node.name, list(node.attributes.items()), node.text, node.tail, children)


class TestInputUntouched:
    SOURCE = wrap_svg(
        '<defs><linearGradient id="fade" x2="1"><stop offset="0" stop-color="red"/>'
        '<stop offset="1" stop-color="blue"/></linearGradient>'
        '<g id="badge" transform="scale(2)" fill="url(#fade)"><rect width="4" height="2"/>'
        '<path d="m 0 0 l 4 2" transform="translate(1,1)"/></g>'
        '<use id="twice" xlink:href="#badge" x="3"/>'
        '<path id="track" d="M 0 0 C 5 5 10 5 15 0" transform="translate(2, 3)"/></defs>'
        '<g transform="scale(1.5)" stroke="navy" opacity="0.5">'
        '<g transform="scale(2)"><rect id="r" x="1" y="2" width="3" height="4" transform="scale(2)"/>'
        '<use xlink:href="#badge"/><use xlink:href="#twice" y="4"/>'
        '<text font-size="9"><textPath xlink:href="#track" transform="scale(3)">along</textPath></text>'
        "</g></g>"
        '<use xlink:href="#track"/>'
        '<foreignObject x="1" y="2" width="30" height="9" transform="rotate(30)">lead'
        '<div xmlns="http://www.w3.org/1999/xhtml">a <b>b</b></div>tail</foreignObject>'
    )

    def test_mapping_leaves_the_parsed_tree_unchanged(self):
        doc = parse_svg(self.SOURCE)
        before = snapshot(doc.root)
        index_before = {key: (id(node), snapshot(node)) for key, node in doc.id_index.items()}
        first, diagnostics = map_document(doc)
        assert not diagnostics.has_errors
        assert snapshot(doc.root) == before
        assert {key: (id(node), snapshot(node)) for key, node in doc.id_index.items()} == index_before
        second, _ = map_document(doc)
        assert second == first

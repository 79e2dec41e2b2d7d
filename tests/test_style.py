import pytest

from svg2vml.mappers import Conversion
from svg2vml.style import (
    NO_PAINT,
    alpha_filter,
    map_stroke_attribute,
    resolve_fill_reference,
    resolve_gradient,
)
from svg2vml.svg_dom import parse_svg


def gradient_node(body: str, attrs: str = ""):
    doc = parse_svg(f'<svg><linearGradient id="g" {attrs}>{body}</linearGradient></svg>')
    return doc.root.children[0]


TWO_STOPS = '<stop offset="0%" stop-color="red"/><stop offset="100%" stop-color="blue"/>'
HORIZONTAL, VERTICAL = "270", "180"  # the v:fill angles


def gradient_fill(color: str, color2: str, angle: str) -> dict:
    return {"type": "gradient", "color": color, "color2": color2, "angle": angle}


def alpha(value: float, diags) -> float:
    """The opacity in the alpha filter written for value, read through the paint fold."""
    doc = parse_svg(f'<svg><rect opacity="{value}"/></svg>')
    text = alpha_filter(NO_PAINT.extend(doc.root.children[0], Conversion(doc, diags, 6), "").opacity, 6)
    prefix = "progid:DXImageTransform.Microsoft.Alpha(opacity="
    assert text.startswith(prefix) and text.endswith(")")
    return float(text[len(prefix):-1])


class TestStrokeTable:
    @pytest.mark.parametrize(
        "svg_name,svg_value,vml_name,vml_value",
        [
            ("stroke", "blue", "color", "blue"),
            ("stroke-width", "2", "weight", "2"),
            ("stroke-width", "10px", "weight", "10"),
            ("stroke-width", "-0", "weight", "0"),
            ("stroke-linecap", "round", "endcap", "round"),
            ("stroke-linecap", "butt", "endcap", "flat"),
            ("stroke-linecap", "square", "endcap", "square"),
            ("stroke-linejoin", "miter", "joinstyle", "miter"),
            ("stroke-linejoin", "round", "joinstyle", "round"),
            ("stroke-linejoin", "bevel", "joinstyle", "bevel"),
            ("stroke-miterlimit", "4", "miterlimit", "4"),
            ("stroke-miterlimit", "1", "miterlimit", "1"),
            ("stroke-miterlimit", "4.50", "miterlimit", "4.5"),
            ("stroke-opacity", "1", "opacity", "1"),
        ],
    )
    def test_rows(self, svg_name, svg_value, vml_name, vml_value, diags):
        assert map_stroke_attribute(svg_name, svg_value, 6, diags, "svg/rect[0]") == (vml_name, vml_value)
        assert not len(diags)

    def test_stroke_opacity_above_one_is_clamped_and_reported(self, diags):
        assert map_stroke_attribute("stroke-opacity", "2", 6, diags, "svg/rect[0]") == ("opacity", "1")
        assert [(d.code, d.message, d.location) for d in diags] == [
            ("BAD_ATTRIBUTE", "stroke-opacity 2 outside [0, 1], clamped", "svg/rect[0]")
        ]

    @pytest.mark.parametrize("value", ["nan", "inf", "2em", "1e3", ""])
    def test_bad_stroke_width_has_no_counterpart(self, value, diags):
        assert map_stroke_attribute("stroke-width", value, 6, diags, "svg/rect[0]") is None
        assert [(d.code, d.location) for d in diags] == [("UNSUPPORTED_UNIT", "svg/rect[0]@stroke-width")]

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("stroke-linecap", "wide", "stroke-linecap 'wide' is not one of butt, round, square"),
            ("stroke-linecap", "flat", "stroke-linecap 'flat' is not one of butt, round, square"),
            ("stroke-linejoin", "arcs", "stroke-linejoin 'arcs' is not one of miter, round, bevel"),
            ("stroke-linejoin", "", "stroke-linejoin '' is not one of miter, round, bevel"),
            ("stroke-miterlimit", "abc", "stroke-miterlimit 'abc' is not a number of at least 1"),
            ("stroke-miterlimit", "0.5", "stroke-miterlimit '0.5' is not a number of at least 1"),
            ("stroke-miterlimit", "nan", "stroke-miterlimit 'nan' is not a number of at least 1"),
            ("stroke-miterlimit", "1e999", "stroke-miterlimit '1e999' is not a number of at least 1"),
        ],
    )
    def test_bad_keyword_or_miterlimit_is_reported_with_no_counterpart(self, name, value, message, diags):
        assert map_stroke_attribute(name, value, 6, diags, "svg/rect[0]") is None
        assert [(d.severity, d.code, d.message, d.location) for d in diags] == [
            ("warning", "BAD_ATTRIBUTE", message, "svg/rect[0]")
        ]


class TestMapOpacity:
    @pytest.mark.parametrize("value,expected", [(0.5, 50), (0, 0), (1, 100), (0.25, 25)])
    def test_scale(self, value, expected, diags):
        assert alpha(value, diags) == expected

    def test_clamps_and_warns(self, diags):
        assert alpha(1.5, diags) == 100
        assert alpha(-0.5, diags) == 0
        assert any(d.severity == "warning" for d in diags)

    def test_monotone_linear_onto_0_100(self, diags):
        samples = [i / 20 for i in range(21)]
        mapped = [alpha(v, diags) for v in samples]
        assert mapped == sorted(mapped)
        assert mapped[0] == 0 and mapped[-1] == 100
        for v, m in zip(samples, mapped):
            assert m == pytest.approx(100 * v)


class TestResolveGradient:
    def test_horizontal_two_stop(self, diags):
        node = gradient_node(TWO_STOPS, 'x1="0%" y1="0%" x2="100%" y2="0%"')
        assert resolve_gradient(node, diags, "svg/rect[0]") == gradient_fill("red", "blue", HORIZONTAL)

    def test_default_axis_is_horizontal(self, diags):
        assert resolve_gradient(gradient_node(TWO_STOPS), diags, "svg/rect[0]")["angle"] == HORIZONTAL

    def test_vertical(self, diags):
        node = gradient_node(TWO_STOPS, 'x1="0%" y1="0%" x2="0%" y2="100%"')
        assert resolve_gradient(node, diags, "svg/rect[0]")["angle"] == VERTICAL

    def test_degenerate_equal_colors(self, diags):
        node = gradient_node(
            '<stop offset="0%" stop-color="black"/><stop offset="100%" stop-color="black"/>'
        )
        assert resolve_gradient(node, diags, "svg/rect[0]") == gradient_fill("black", "black", HORIZONTAL)

    def test_three_stops_unsupported(self, diags):
        node = gradient_node(
            TWO_STOPS + '<stop offset="50%" stop-color="green"/>'
        )
        assert resolve_gradient(node, diags, "svg/rect[0]") is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

    def test_diagonal_unsupported(self, diags):
        node = gradient_node(TWO_STOPS, 'x1="0%" y1="0%" x2="100%" y2="100%"')
        assert resolve_gradient(node, diags, "svg/rect[0]") is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

    def test_wrong_offsets_unsupported(self, diags):
        node = gradient_node(
            '<stop offset="10%" stop-color="red"/><stop offset="90%" stop-color="blue"/>'
        )
        assert resolve_gradient(node, diags, "svg/rect[0]") is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

    def test_acceptance_is_decidable_from_the_element(self, diags):
        # accepted iff: exactly two stops, offsets 0/100, axis-aligned
        accepted = gradient_node(TWO_STOPS)
        assert resolve_gradient(accepted, diags, "svg/rect[0]") is not None
        rejected = gradient_node('<stop offset="0%" stop-color="red"/>')
        assert resolve_gradient(rejected, diags, "svg/rect[0]") is None


class TestResolveFillReference:
    def test_resolves_url_form(self, diags):
        doc = parse_svg(
            f'<svg><defs><linearGradient id="grad1">{TWO_STOPS}</linearGradient></defs></svg>'
        )
        spec = resolve_fill_reference("url(#grad1)", doc, diags, "svg/rect[0]")
        assert spec == gradient_fill("red", "blue", HORIZONTAL)

    def test_dangling_reference(self, diags):
        doc = parse_svg("<svg/>")
        assert resolve_fill_reference("url(#nope)", doc, diags, "svg/rect[0]") is None
        assert "DANGLING_REF" in diags.codes()

    def test_reference_to_non_gradient(self, diags):
        doc = parse_svg('<svg><rect id="r" width="1" height="1"/></svg>')
        assert resolve_fill_reference("url(#r)", doc, diags, "svg/rect[0]") is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

import pytest

from svg2vml.style import (
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
    """The opacity in the alpha filter written for value."""
    text = alpha_filter(str(value), 6, diags)
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
            ("stroke-linecap", "round", "endcap", "round"),
            ("stroke-linecap", "butt", "endcap", "flat"),
            ("stroke-linejoin", "miter", "joinstyle", "miter"),
            ("stroke-miterlimit", "4", "miterlimit", "4"),
            ("stroke-opacity", "1", "opacity", "1"),
            ("stroke-opacity", "2", "opacity", "1"),
        ],
    )
    def test_rows(self, svg_name, svg_value, vml_name, vml_value):
        assert map_stroke_attribute(svg_name, svg_value) == (vml_name, vml_value)

    @pytest.mark.parametrize("value", ["nan", "inf", "2em", "1e3", ""])
    def test_bad_stroke_width_has_no_counterpart(self, value):
        assert map_stroke_attribute("stroke-width", value) is None


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
        assert resolve_gradient(node, diags) == gradient_fill("red", "blue", HORIZONTAL)

    def test_default_axis_is_horizontal(self, diags):
        assert resolve_gradient(gradient_node(TWO_STOPS), diags)["angle"] == HORIZONTAL

    def test_vertical(self, diags):
        node = gradient_node(TWO_STOPS, 'x1="0%" y1="0%" x2="0%" y2="100%"')
        assert resolve_gradient(node, diags)["angle"] == VERTICAL

    def test_degenerate_equal_colors(self, diags):
        node = gradient_node(
            '<stop offset="0%" stop-color="black"/><stop offset="100%" stop-color="black"/>'
        )
        assert resolve_gradient(node, diags) == gradient_fill("black", "black", HORIZONTAL)

    def test_three_stops_unsupported(self, diags):
        node = gradient_node(
            TWO_STOPS + '<stop offset="50%" stop-color="green"/>'
        )
        assert resolve_gradient(node, diags) is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

    def test_diagonal_unsupported(self, diags):
        node = gradient_node(TWO_STOPS, 'x1="0%" y1="0%" x2="100%" y2="100%"')
        assert resolve_gradient(node, diags) is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

    def test_wrong_offsets_unsupported(self, diags):
        node = gradient_node(
            '<stop offset="10%" stop-color="red"/><stop offset="90%" stop-color="blue"/>'
        )
        assert resolve_gradient(node, diags) is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

    def test_acceptance_is_decidable_from_the_element(self, diags):
        # accepted iff: exactly two stops, offsets 0/100, axis-aligned
        accepted = gradient_node(TWO_STOPS)
        assert resolve_gradient(accepted, diags) is not None
        rejected = gradient_node('<stop offset="0%" stop-color="red"/>')
        assert resolve_gradient(rejected, diags) is None


class TestResolveFillReference:
    def test_resolves_url_form(self, diags):
        doc = parse_svg(
            f'<svg><defs><linearGradient id="grad1">{TWO_STOPS}</linearGradient></defs></svg>'
        )
        spec = resolve_fill_reference("url(#grad1)", doc, diags)
        assert spec == gradient_fill("red", "blue", HORIZONTAL)

    def test_dangling_reference(self, diags):
        doc = parse_svg("<svg/>")
        assert resolve_fill_reference("url(#nope)", doc, diags) is None
        assert "DANGLING_REF" in diags.codes()

    def test_reference_to_non_gradient(self, diags):
        doc = parse_svg('<svg><rect id="r" width="1" height="1"/></svg>')
        assert resolve_fill_reference("url(#r)", doc, diags) is None
        assert "UNSUPPORTED_GRADIENT" in diags.codes()

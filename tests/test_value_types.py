"""The contracts of the package's exported value types.

Options and diagnostics are immutable and check their arguments; tree nodes
compare field by field, only with their own kind, and cannot be hashed.  Each
node gets its own attribute table and child list.
"""

import pytest

from svg2vml import ConvertOptions, Diagnostic, SvgNode, VmlNode


class TestConvertOptions:
    def test_defaults_in_field_order(self):
        options = ConvertOptions()
        assert (options.mode, options.precision, options.strict, options.pretty, options.title) == (
            "vml", 6, False, False, None,
        )
        assert ConvertOptions("xhtml", 2, True, True, "t") == ConvertOptions(
            mode="xhtml", precision=2, strict=True, pretty=True, title="t"
        )

    @pytest.mark.parametrize("kwargs", [{"mode": "svg"}, {"precision": 13}, {"precision": -1}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ConvertOptions(**kwargs)

    def test_is_immutable(self):
        options = ConvertOptions()
        with pytest.raises(AttributeError):
            options.precision = 2
        assert options.precision == 6

    def test_replace_checks_the_new_values(self):
        assert ConvertOptions()._replace(precision=2) == ConvertOptions(precision=2)
        with pytest.raises(ValueError):
            ConvertOptions()._replace(precision=13)


class TestDiagnostic:
    def test_str(self):
        assert str(Diagnostic("warning", "BAD_PATH", "bad d", "svg/path[0]@d")) == (
            "warning BAD_PATH: bad d @svg/path[0]@d"
        )
        assert str(Diagnostic("error", "MALFORMED_XML", "not xml")) == "error MALFORMED_XML: not xml"

    def test_location_defaults_to_empty(self):
        assert Diagnostic("error", "MALFORMED_XML", "not xml").location == ""

    def test_is_immutable(self):
        diagnostic = Diagnostic("warning", "BAD_PATH", "bad d")
        with pytest.raises(AttributeError):
            diagnostic.code = "BAD_ATTRIBUTE"
        assert diagnostic.code == "BAD_PATH"


@pytest.mark.parametrize(
    "make",
    [lambda **fields: VmlNode("v:shape", **fields), lambda **fields: SvgNode("rect", "rect", **fields)],
    ids=["VmlNode", "SvgNode"],
)
class TestTreeNodes:
    def test_equal_field_by_field(self, make):
        assert make() == make()
        assert make(attributes={"id": "a"}, text="t") == make(attributes={"id": "a"}, text="t")
        assert make(children=[make(tail="x")]) == make(children=[make(tail="x")])
        assert make(attributes={"id": "a"}) != make(attributes={"id": "b"})
        assert make(text="t") != make(tail="t")
        assert make(children=[make(tail="x")]) != make(children=[make(tail="y")])

    def test_unequal_to_a_tuple_of_its_fields(self, make):
        assert make() != ("rect", "rect", {}, [], None, None)
        assert make() != ("v:shape", {}, {}, [], None, None)

    def test_unhashable(self, make):
        with pytest.raises(TypeError):
            hash(make())

    def test_fresh_tables_per_instance(self, make):
        first, second = make(), make()
        first.attributes["id"] = "a"
        first.children.append(make())
        assert second.attributes == {} and second.children == []


def test_tree_nodes_of_different_kinds_are_unequal():
    assert VmlNode("rect") != SvgNode("rect", "rect")
    assert SvgNode("rect", "rect") != VmlNode("rect")


def test_tree_node_repr_names_every_field_in_slot_order():
    assert repr(SvgNode("rect", "rect", {"id": "a"}, text="t")) == (
        "SvgNode(tag='rect', name='rect', attributes={'id': 'a'}, children=[], text='t', tail=None)"
    )
    assert repr(VmlNode("v:shape", {"path": "m 0,0 e"}, children=[VmlNode("v:fill")])) == (
        "VmlNode(tag='v:shape', attributes={'path': 'm 0,0 e'}, style={}, children=[VmlNode(tag='v:fill', "
        "attributes={}, style={}, children=[], text=None, tail=None)], text=None, tail=None)"
    )

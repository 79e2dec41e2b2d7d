"""The contracts of the package's exported value types.

Options and diagnostics are immutable and check their arguments; tree nodes
compare field by field, only with their own kind, and cannot be hashed.  Each
node gets its own attribute table and child list.  The four exported named
tuples (`ConvertOptions`, `Diagnostic`, `SvgDocument`, `ViewBox`) keep the
whole named-tuple contract, pickling included.
"""

import pickle

import pytest

from svg2vml import ConvertOptions, Diagnostic, SvgDocument, SvgNode, VmlNode, parse_svg
from svg2vml.svg_dom import ViewBox


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


def test_vml_leaves_compare_and_are_fresh_per_instance():
    assert VmlNode("v:shape", leaves=["<v:fill/>"]) == VmlNode("v:shape", leaves=["<v:fill/>"])
    assert VmlNode("v:shape", leaves=["<v:fill/>"]) != VmlNode("v:shape", leaves=["<v:stroke/>"])
    first, second = VmlNode("v:shape"), VmlNode("v:shape")
    first.leaves.append("<v:fill/>")
    assert second.leaves == []


def test_tree_nodes_of_different_kinds_are_unequal():
    assert VmlNode("rect") != SvgNode("rect", "rect")
    assert SvgNode("rect", "rect") != VmlNode("rect")


def test_tree_node_repr_names_every_field_in_slot_order():
    assert repr(SvgNode("rect", "rect", {"id": "a"}, text="t")) == (
        "SvgNode(tag='rect', name='rect', attributes={'id': 'a'}, children=[], text='t', tail=None)"
    )
    assert repr(VmlNode("a", {"href": "#x"}, children=[VmlNode("v:shape")], leaves=['<v:fill color="red"/>'])) == (
        "VmlNode(tag='a', attributes={'href': '#x'}, style={}, children=[VmlNode(tag='v:shape', "
        "attributes={}, style={}, children=[], text=None, tail=None, leaves=[])], text=None, tail=None, "
        """leaves=['<v:fill color="red"/>'])"""
    )


# The named-tuple contract of the four exported value types: field names and
# defaults, repr, _asdict, pattern matching, equality with a plain tuple and
# pickling.  The expected values are written out, so a change of how the
# types are defined cannot change what they do.
VIEW_BOX = ViewBox(0, -1.5, 100, 50.25)
OPTIONS = ConvertOptions("xhtml", 2, True, True, "t")
DIAGNOSTIC = Diagnostic("warning", "BAD_PATH", "bad d", "svg/path[0]@d")


@pytest.mark.parametrize(
    "cls,fields,defaults",
    [
        (ConvertOptions, ("mode", "precision", "strict", "pretty", "title"),
         {"mode": "vml", "precision": 6, "strict": False, "pretty": False, "title": None}),
        (Diagnostic, ("severity", "code", "message", "location"), {"location": ""}),
        (SvgDocument, ("root", "id_index", "diagnostics", "elements"), {}),
        (ViewBox, ("min_x", "min_y", "width", "height"), {}),
    ],
    ids=["ConvertOptions", "Diagnostic", "SvgDocument", "ViewBox"],
)
def test_fields_defaults_and_match_args(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert cls.__match_args__ == fields
    assert issubclass(cls, tuple)


@pytest.mark.parametrize(
    "value,text",
    [
        (OPTIONS, "ConvertOptions(mode='xhtml', precision=2, strict=True, pretty=True, title='t')"),
        (ConvertOptions(), "ConvertOptions(mode='vml', precision=6, strict=False, pretty=False, title=None)"),
        (DIAGNOSTIC, "Diagnostic(severity='warning', code='BAD_PATH', message='bad d', location='svg/path[0]@d')"),
        (VIEW_BOX, "ViewBox(min_x=0, min_y=-1.5, width=100, height=50.25)"),
        (SvgDocument(None, {}, None, 0), "SvgDocument(root=None, id_index={}, diagnostics=None, elements=0)"),
    ],
)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize(
    "value,fields",
    [
        (OPTIONS, {"mode": "xhtml", "precision": 2, "strict": True, "pretty": True, "title": "t"}),
        (DIAGNOSTIC, {"severity": "warning", "code": "BAD_PATH", "message": "bad d", "location": "svg/path[0]@d"}),
        (VIEW_BOX, {"min_x": 0, "min_y": -1.5, "width": 100, "height": 50.25}),
    ],
)
def test_asdict_is_a_plain_dict_in_field_order(value, fields):
    got = value._asdict()
    assert type(got) is dict
    assert list(got.items()) == list(fields.items())


def test_equal_to_the_plain_tuple_of_their_fields():
    assert OPTIONS == ("xhtml", 2, True, True, "t")
    assert ConvertOptions() == ("vml", 6, False, False, None)
    assert DIAGNOSTIC == ("warning", "BAD_PATH", "bad d", "svg/path[0]@d")
    assert Diagnostic("error", "MALFORMED_XML", "x") == ("error", "MALFORMED_XML", "x", "")
    assert VIEW_BOX == (0, -1.5, 100, 50.25)
    assert hash(VIEW_BOX) == hash((0, -1.5, 100, 50.25))


def test_match_by_position_and_by_keyword():
    match DIAGNOSTIC:
        case Diagnostic(severity, code, location=location):
            assert (severity, code, location) == ("warning", "BAD_PATH", "svg/path[0]@d")
        case _:
            pytest.fail("a Diagnostic matches its own class pattern")
    match VIEW_BOX:
        case ViewBox(_, _, width, height):
            assert (width, height) == (100, 50.25)


def test_instances_have_no_attribute_table():
    for value in (OPTIONS, DIAGNOSTIC, VIEW_BOX, SvgDocument(None, {}, None, 0)):
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", [OPTIONS, ConvertOptions(), DIAGNOSTIC, VIEW_BOX], ids=repr)
def test_pickle_round_trip(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value) and copy == value


def test_pickle_round_trip_of_a_parsed_document():
    document = parse_svg('<svg id="a"><rect id="b"/><rect id="b"/></svg>')
    copy = pickle.loads(pickle.dumps(document))
    assert type(copy) is SvgDocument
    assert (copy.root, copy.id_index, copy.elements) == (document.root, document.id_index, 3)
    assert copy.id_index["a"] is copy.root and copy.id_index["b"] is copy.root.children[0]
    assert [str(d) for d in copy.diagnostics] == [str(d) for d in document.diagnostics] == [
        "warning DUPLICATE_ID: duplicate id 'b'; first occurrence wins @svg/rect[1]"
    ]

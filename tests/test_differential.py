"""The differential check's fragment generator (tools/differential.py)."""

import importlib.util
from pathlib import Path

import pytest

from svg2vml import convert_text

_SPEC = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parent.parent / "tools" / "differential.py"
)
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


def test_fragments_are_the_same_for_the_same_seed():
    first = differential.build_fragments(7, 64)
    assert first == differential.build_fragments(7, 64)
    assert first != differential.build_fragments(8, 64)


def test_every_family_is_drawn_in_turn():
    families = [family for family, _, _ in differential.build_fragments(1, 2 * len(differential.FRAGMENT_FAMILIES))]
    assert families == 2 * list(differential.FRAGMENT_FAMILIES)


@pytest.mark.parametrize("seed", [1, 2])
def test_only_the_malformed_family_is_malformed(seed):
    for family, name, text in differential.build_fragments(seed, 80):
        if family != "malformed-with-undeclared-prefix":
            assert "MALFORMED_XML" not in convert_text(text)[1].codes(), name

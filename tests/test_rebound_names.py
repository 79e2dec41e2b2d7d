"""The names the benchmark's traced run rebinds by name must stay bound.

perfbench/spans.py wraps these module attributes for the length of a traced
pass.  Several are no longer called by the converter, so an import that looks
unused can be removed without any other test noticing; the traced benchmark
would then crash.  This pin fails first.
"""

import pytest

from svg2vml import mappers, path_data, style, transform

REBOUND = [
    (module, "format_number") for module in (mappers, path_data, transform, style)
] + [
    (mappers, name)
    for name in (
        "parse_path_data",
        "to_absolute",
        "shift_commands",
        "emit_vml_path",
        "parse_transform_list",
        "compose_ctm",
        "resolve_fill_reference",
    )
] + [(mappers.MapperContext, "at")]


@pytest.mark.parametrize(
    "owner,name", REBOUND, ids=[f"{owner.__name__}.{name}" for owner, name in REBOUND]
)
def test_rebound_name_exists_and_is_callable(owner, name):
    assert callable(getattr(owner, name, None))

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svg2vml.numeric import format_number, format_numbers, parse_number

# Strings of the f"{value:.{precision}f}" formatter this table was recorded
# from, for precisions 0..8.
EDGE_FORMATS = {
    -0.0: ["0"] * 9,
    4e-7: ["0"] * 7 + ["0.0000004"] * 2,
    -4e-7: ["0"] * 7 + ["-0.0000004"] * 2,
    5e-7: ["0"] * 7 + ["0.0000005"] * 2,
    1e15: ["1000000000000000"] * 9,
    -2.5: ["-2"] + ["-2.5"] * 8,
    123.456789: [
        "123", "123.5", "123.46", "123.457", "123.4568",
        "123.45679", "123.456789", "123.456789", "123.456789",
    ],
    1 / 3: [
        "0", "0.3", "0.33", "0.333", "0.3333",
        "0.33333", "0.333333", "0.3333333", "0.33333333",
    ],
}


@pytest.mark.parametrize("value", list(EDGE_FORMATS))
def test_format_number_edge_values(value):
    assert [format_number(value, precision) for precision in range(9)] == EDGE_FORMATS[value]


@pytest.mark.parametrize("precision", range(9))
def test_format_numbers_edge_values(precision):
    values = list(EDGE_FORMATS)
    assert format_numbers(values, precision) == [EDGE_FORMATS[value][precision] for value in values]


EDGE_FLOATS = [0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 1e300, -1e300, 5e-324, -5e-324,
               float("inf"), float("-inf"), float("nan"), 1 / 3, -2 / 7]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(), st.floats(-1e6, 1e6), st.sampled_from(EDGE_FLOATS)), max_size=40
    ),
    precision=st.integers(0, 15),
)
@example(values=[], precision=6)
def test_format_numbers_matches_format_number(values, precision):
    assert format_numbers(values, precision) == [format_number(value, precision) for value in values]


@pytest.mark.parametrize("precision", [9, 12, 15])
def test_format_number_matches_format_spec_at_any_precision(precision):
    for value in (0.1, -0.0, 1 / 7, -123456.789):
        expected = f"{value:.{precision}f}".rstrip("0").rstrip(".")
        assert format_number(value, precision) == ("0" if expected == "-0" else expected)


@pytest.mark.parametrize(
    "token", ["1" * 400, "-" + "9" * 309, "9" * 309 + ".5"], ids=["400-digits", "negative", "fraction"]
)
def test_parse_number_rejects_overflow(token):
    with pytest.raises(ValueError):
        parse_number(token)


def test_parse_number_keeps_large_finite_values():
    assert parse_number("9" * 300) == float("9" * 300)


@pytest.mark.parametrize(
    "token",
    ["1" * 200_000 + "x", "1" * 200_000 + ".5.", "." + "5" * 200_000 + "e"],
    ids=["digits", "second-point", "fraction"],
)
def test_parse_number_rejects_long_runs_in_linear_time(token):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_number(token)
    assert time.perf_counter() - start < 1.0

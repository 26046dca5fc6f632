"""The strict readers in monopole_corners.inputs: one rule per kind of number."""

import math
import time
from fractions import Fraction

import pytest

from monopole_corners.inputs import (
    as_digits,
    as_int,
    as_list,
    as_object,
    as_rational,
    as_real,
    as_real_text,
)

_HUGE = 10**400  # an integer no float can hold


@pytest.mark.parametrize("x,want", [(2, 2), (2.0, 2), (0, 0), (10**300, 10**300)])
def test_as_int_accepts_integers_and_integral_floats(x, want):
    got = as_int(x, "n", 0)
    assert got == want and type(got) is int


@pytest.mark.parametrize("x", [True, False, 1.5, "2", None, [2], math.nan, math.inf, -1, _HUGE])
def test_as_int_refuses(x):
    with pytest.raises(ValueError, match="^n must be an integer >= 0"):
        as_int(x, "n", 0)


@pytest.mark.parametrize("x,want", [(2, 2.0), (-0.5, -0.5), (Fraction(1, 4), 0.25)])
def test_as_real_accepts_finite_numbers(x, want):
    got = as_real(x, "r")
    assert got == want and type(got) is float


@pytest.mark.parametrize("x", [True, "1", "1e1", None, [1.0], {}])
def test_as_real_refuses_non_numbers(x):
    with pytest.raises(ValueError, match="^r must be a real number"):
        as_real(x, "r")


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, _HUGE])
def test_as_real_refuses_non_finite_values(x):
    with pytest.raises(ValueError, match="^non-finite r"):
        as_real(x, "r")


@pytest.mark.parametrize(
    "x,want",
    [(3, Fraction(3)), ("-3/4", Fraction(-3, 4)), ("1.5", Fraction(3, 2)), ("+07", Fraction(7))],
)
def test_as_rational_accepts_ints_and_rational_strings(x, want):
    assert as_rational(x, "q") == want


@pytest.mark.parametrize(
    "x",
    [
        True, 0.5, 1.0, "1/0", "x", "", None, ["1"],
        # Fraction's own grammar accepts these; the ASCII grammar does not
        "1e10000000", "1e2", "1_0", "\u0661", " 1", "1 ", "1\n", "1.", ".5", "1/-2", "1.5/2",
        "inf", "nan", "1" * 5000,
    ],
)
def test_as_rational_refuses(x):
    with pytest.raises(ValueError, match="^q: "):
        as_rational(x, "q")


def test_as_rational_refuses_exponents_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^q: "):
        as_rational("1e10000000", "q")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text,want", [("0", 0), ("007", 7), ("1" + "0" * 300, 10**300)])
def test_as_digits_accepts_ascii_digits(text, want):
    got = as_digits(text, "n", 0)
    assert got == want and type(got) is int


@pytest.mark.parametrize("text", ["", "1_0", "\u0661", "+1", "-1", " 1", "1.0", "0x1", "9" * 400])
def test_as_digits_refuses(text):
    with pytest.raises(ValueError, match="^n must be an integer >= 0"):
        as_digits(text, "n", 0)


def test_as_digits_minimum():
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got '0'"):
        as_digits("0", "n", 1)


@pytest.mark.parametrize(
    "text", ["0.1", "435.0", "10", "-2.5", "1/3", "2/7", "1" + "0" * 308, "123456789.000000001"]
)
def test_as_real_text_matches_float_on_its_grammar(text):
    got = as_real_text(text, "r")
    assert type(got) is float
    assert got == (float(text) if "/" not in text else float(Fraction(text)))


@pytest.mark.parametrize("text", ["1e3", "inf", "nan", "1_0", "\u0661", " 1", "0x10"])
def test_as_real_text_refuses_outside_the_grammar(text):
    with pytest.raises(ValueError, match="^r: "):
        as_real_text(text, "r")


def test_as_real_text_refuses_values_beyond_float():
    with pytest.raises(ValueError, match="^r: .* exceeds the floating-point range"):
        as_real_text("1" * 400, "r")


def test_shape_readers():
    d = {"xs": [1]}
    assert as_object(d, "doc") is d and as_list(d, "xs", "a list") == [1]
    for bad in ([], "x", None):
        with pytest.raises(ValueError, match="^doc must be a JSON object"):
            as_object(bad, "doc")
    for bad in ({}, {"xs": 5}, {"xs": {"a": 1}}):
        with pytest.raises(ValueError, match="^'xs' must be a list"):
            as_list(bad, "xs", "a list")

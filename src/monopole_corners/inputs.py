"""Strict readers for JSON and argv values: the one place that decides what
counts as a number, one reader per kind and no coercion.  A bool is never a
number, a string is one only for `as_rational`, `as_digits` and `as_real_text`
(ASCII grammars, no binary float), and every reader raises ValueError naming
its field.  `fractions` is imported only where a Fraction is made, so a
process that reads no rational does not load it."""

import math
import re
import sys
from numbers import Integral, Real

_FLOAT_MAX = int(sys.float_info.max)

#: Optional sign and digits, then optionally /digits or .digits.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def as_int(x, what: str, minimum: int) -> int:
    """An integer from minimum up to the largest float; 2.0 counts as 2."""
    n = int(x) if isinstance(x, float) and x.is_integer() else x
    integral = type(n) is int or isinstance(n, Integral) and not isinstance(n, bool)
    if not (integral and minimum <= n <= _FLOAT_MAX):
        raise ValueError(f"{what} must be an integer >= {minimum}, got {x!r}")
    return int(n)


def as_real(x, what: str) -> float:
    """A finite int or float, as a float."""
    if type(x) is not float:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, Real)):
            raise ValueError(f"{what} must be a real number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            raise ValueError(f"non-finite {what}: {x!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"non-finite {what}: {x!r}")
    return x


def as_rational(x, what: str) -> "Fraction":
    """An int or an ASCII rational string such as "-3/4" or "1.5", as a Fraction."""
    from fractions import Fraction

    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            if isinstance(x, int) or _RATIONAL.fullmatch(x):
                return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{what}: {x!r} is not an int or a rational string such as '-3/4'")


def as_digits(text: str, what: str, minimum: int) -> int:
    """`as_int` for argv text: ASCII digits such as "012", at most 309 of
    them (the largest float has 309)."""
    n = int(text) if text.isascii() and text.isdigit() and len(text) < 310 else -1
    if not minimum <= n <= _FLOAT_MAX:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {text!r}")
    return n


def as_real_text(text: str, what: str) -> float:
    """`as_real` for argv text: the `as_rational` grammar, rounded to the
    nearest float."""
    try:
        return float(as_rational(text, what))
    except OverflowError:
        raise ValueError(f"{what}: {text!r} exceeds the floating-point range") from None


def as_object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def as_list(d: dict, key: str, what: str) -> list:
    """The list under `key`; `what` describes it in the error."""
    x = d.get(key)
    if not isinstance(x, list):
        raise ValueError(f"'{key}' must be {what}")
    return x

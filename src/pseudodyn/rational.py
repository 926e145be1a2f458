"""Exact rational parsing/formatting, the unbounded marker, and the one
owner of each argument rule: a radius is at least 0, a scale positive and
a word length an int of at least 1, and an entry point checks them first.

All verdict-relevant numbers in this library are `fractions.Fraction`;
floats only ever appear in rendered log/entropy columns.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


class Unbounded:
    """Marker for "any value works": no finite constraint exists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unbounded"


UNBOUNDED = Unbounded()


def is_unbounded(value) -> bool:
    return isinstance(value, Unbounded)


def parse_rational(value) -> Fraction:
    """Parse an exact rational from int, Fraction, float, or a 'p/q' /
    decimal string.

    A float is read as the shortest decimal literal that prints as it, so
    ``0.1`` gives ``1/10``, not the binary value of the float.  Booleans
    are rejected.  Model files should prefer 'p/q' strings or integers for
    non-integral values.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        # Read the float as the decimal literal it prints as; model files
        # should prefer 'p/q' strings, and the JSON loader parses decimal
        # literals exactly before a float is ever constructed.  The JSON
        # constants Infinity and NaN arrive as the only non-finite floats.
        if not math.isfinite(value):
            raise InputError(f"not a rational: {value!r}")
        return Fraction(str(value))
    raise InputError(f"cannot parse rational from {value!r}")


def parse_radius(value) -> Fraction:
    """Parse a ball radius: an exact rational that must be nonnegative."""
    radius = parse_rational(value)
    # the numerator has the sign, and reads faster than a Fraction compare
    if radius.numerator < 0:
        raise InputError("radius must be nonnegative")
    return radius


def parse_scale(value, name: str = "scale") -> Fraction:
    """Parse a scale (an eps, a delta, a factor): a positive rational."""
    scale = parse_rational(value)
    if scale.numerator <= 0:
        raise InputError(f"{name} must be positive")
    return scale


def check_length(n, name: str = "n", least: int = 1):
    """A word length ``n``, or a count: an ``int`` (no ``bool``) of at least
    ``least``, 1 or 0 for the shift's n, whose 0-ball is the metric ball."""
    if type(n) is not int:
        raise InputError(f"{name} must be an integer (got {n!r})")
    if n < least:
        raise InputError(f"{name} must be at least {least}" if least
                         else f"{name} must be nonnegative")
    return n


def format_rational(value) -> str:
    if is_unbounded(value):
        return "unbounded"
    p, q = value.as_integer_ratio()
    if q == 1:
        return str(p)
    return f"{p}/{q}"

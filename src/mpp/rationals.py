"""Exact rational scalars and their string form used in all JSON interfaces."""

from __future__ import annotations

import re
from fractions import Fraction

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")  # ASCII digits only


def rat(value) -> Fraction:
    """Coerce ints, Fractions and strings like "3", "-1/2" to a Fraction.

    Floats are rejected: the kernel is exact and a float almost always
    indicates an upstream mistake.  So are booleans, although Python counts
    them as ints: JSON `true` is not the rational 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"a boolean is not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RAT_RE.fullmatch(value.strip())
        if not m:
            raise ValueError(f"not a rational literal: {value!r}")
        return Fraction(int(m[1]), int(m[2] or 1))
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "n" or "n/d" (bit-exact round-trip with rat)."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"

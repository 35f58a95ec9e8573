"""Exact rationals at the edges of the library: parsing "p/q"
literals to integer pairs and ASCII integers to ints, fixed-point
decimals, and the error for operands of incompatible dimensions.  The
elimination the geometry kernel needs, ranks and the seed rays of
double description, runs on its integer rows in ``polyvote.polytope``.
"""

from __future__ import annotations

import re
from fractions import Fraction


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


# [0-9], not \d, which matches every Unicode decimal digit
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> tuple[int, int]:
    """Parse the serialized form "p/q" (or "p"), optional leading sign,
    to the integers (p, q), q = 1 for "p"; the denominator q must be
    nonzero.  The pair is not reduced.  ASCII digits after an optional
    sign are read by int() before the pattern is tried."""
    s = text.strip()
    digits = s[1:] if s[:1] in "+-" else s
    if digits.isascii() and digits.isdigit():
        return int(s), 1
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    num, slash, den = s.partition("/")
    den = int(den) if slash else 1
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return int(num), den


def parse_integer(text: str, signed: bool = False) -> int:
    """Parse ASCII digits, after one optional leading "-" when
    ``signed``, to an int; int() alone would also read "1_0", "+5",
    " 5" and non-ASCII digits."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def decimal_string(q: Fraction, places: int = 5) -> str:
    """Fixed-point decimal of ``q``, rounding halves away from zero."""
    q = Fraction(q)
    scale = 10**places
    p, r = abs(q.numerator) * scale, q.denominator
    units, rem = divmod(p, r)
    if 2 * rem >= r:
        units += 1
    sign = "-" if q < 0 and units else ""
    whole, frac = divmod(units, scale)
    return f"{sign}{whole}.{frac:0{places}d}"

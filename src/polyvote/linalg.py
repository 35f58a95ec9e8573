"""Exact rationals at the edges of the library: parsing "p/q"
literals, fixed-point decimals, and the error for operands of
incompatible dimensions.  The elimination the geometry kernel needs,
ranks and the seed inverse of double description, runs on its integer
rows in ``polyvote.polytope``.
"""

from __future__ import annotations

import re
from fractions import Fraction


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the serialized form "p/q" (or "p"), optional leading sign;
    the denominator q must be nonzero."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s and not int(s.partition("/")[2]):
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(s)


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

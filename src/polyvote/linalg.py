"""Exact linear algebra on small dense matrices.

One fraction-free (Bareiss) elimination, :func:`bareiss`, works on
integer rows in place: every intermediate quantity is an integer and
every division in it is exact.  The geometry kernel calls it for the
rank of rows it already holds as integers.
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


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(q))


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


def bareiss(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) row echelon of integer rows, in place.

    A row swap also negates the row moved down, so the determinant keeps
    its sign.  Returns the rank.  When the rank equals the row count n,
    the pivots are ``m[i][i]``, all nonzero, and for a square matrix the
    last pivot ``m[-1][-1]`` is its determinant."""
    rows = len(m)
    width = len(m[0]) if m else 0
    r = 0
    prev = 1
    for c in range(width):
        for piv in range(r, rows):
            if m[piv][c]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], [-v for v in m[r]]
        mr = m[r]
        pivot = mr[c]
        for i in range(r + 1, rows):
            mi = m[i]
            f = mi[c]
            if f:
                for j in range(c + 1, width):
                    mi[j] = (mi[j] * pivot - f * mr[j]) // prev
                mi[c] = 0
            elif pivot != prev:
                # a zero multiplier leaves only the exact rescaling
                for j in range(c + 1, width):
                    mi[j] = mi[j] * pivot // prev
        prev = pivot
        r += 1
        if r == rows:
            break
    return r

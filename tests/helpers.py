"""Shared test fixtures: known generating functions for the plurality
manipulation regions, a brute-force lattice counter kept independent
of the production counting path, and equality elimination done in
``Fraction`` arithmetic as a reference for the integer one."""

import itertools
import math
from fractions import Fraction as F

from polyvote.ehrhart import RationalGF, expand_factors
from polyvote.polytope import HalfSpace, HPolytope

# Ehrhart series of the region where a coalition can elect b (plurality,
# sincere ranking a > b > c), its b<->c mirror, and their intersection.
# Numerators ascending; denominators as factored polynomial powers.
FAVOR_B_SERIES = RationalGF(
    [1, 2, 6, 14, 30, 44, 63, 64, 66, 56, 44, 24, 12],
    expand_factors([([1, -1], 2), ([1, 0, 0, -1], 4), ([1, 1], 4), ([1, 0, 1], 3)]),
)
FAVOR_C_SERIES = RationalGF(
    [1, 2, 4, 10, 20, 30, 41, 40, 38, 34, 26, 16, 8],
    expand_factors([([1, 0, 0, 0, -1], 3), ([1, -1], 2), ([1, 0, -1], 1), ([1, 1, 1], 4)]),
)
FAVOR_BOTH_SERIES = RationalGF(
    [1, 0, 2, 4, 4, 4, 5, 0, 4],
    expand_factors([([1, -1], 4), ([1, 0, 0, 0, -1], 2), ([1, 1, 1], 4)]),
)
MANIPULABLE_UNION_SERIES = RationalGF(
    [1, 2, 6, 14, 33, 50, 73, 74, 78, 68, 57, 32, 16],
    expand_factors([([1, 0, 0, 0, -1], 3), ([1, -1], 2), ([1, 0, -1], 1), ([1, 1, 1], 4)]),
)

# quasipolynomial of the union region, ascending coefficients per class
UNION_CLASS_0 = [F(1), F(137, 120), F(15, 32), F(3, 32), F(1, 108), F(7, 17280)]
UNION_CLASS_6 = [F(5, 8), F(61, 60), F(15, 32), F(3, 32), F(1, 108), F(7, 17280)]
UNION_CLASS_1 = [F(-209, 1296), F(-917, 17280), F(5, 36), F(341, 5184), F(1, 108), F(7, 17280)]


def integer_halfspaces(poly):
    """Each constraint ``a.x REL b`` of ``poly`` cleared of denominators
    to integers (a, REL, b); the solution set is unchanged."""
    out = []
    for c in poly.constraints:
        m = math.lcm(*(a.denominator for a in c.coeffs), c.rhs.denominator)
        out.append((tuple(int(a * m) for a in c.coeffs), c.rel, int(c.rhs * m)))
    return out


def dilation_contains(halfspaces, point, n):
    """Whether the integer point lies in nP, for P given by
    :func:`integer_halfspaces`: ``a.point REL b*n`` on ints."""
    for coeffs, rel, rhs in halfspaces:
        lhs = sum(a * x for a, x in zip(coeffs, point))
        bound = rhs * n
        if rel == "<=":
            ok = lhs <= bound
        elif rel == ">=":
            ok = lhs >= bound
        else:
            ok = lhs == bound
        if not ok:
            return False
    return True


def brute_count(poly, n):
    """Count lattice points of the n-fold dilation by scanning the whole
    integer bounding box and testing membership pointwise."""
    if poly.is_empty():
        return 0
    if n == 0:
        return 1
    lo, hi = poly.bounding_box()
    axes = [
        range(math.ceil(n * a), math.floor(n * b) + 1) for a, b in zip(lo, hi)
    ]
    halfspaces = integer_halfspaces(poly)
    return sum(dilation_contains(halfspaces, point, n) for point in itertools.product(*axes))


def eliminate_over_fractions(poly, j):
    """``poly.eliminate_equality(j)`` done on the ``HalfSpace`` rows in
    ``Fraction`` arithmetic and canonicalized by ``HPolytope``."""
    row = next(c for c in poly.constraints if c.rel == "=" and c.coeffs[j] != 0)
    keep = [i for i in range(poly.dim) if i != j]
    return HPolytope(poly.dim - 1, [
        HalfSpace(tuple(c.coeffs[i] - c.coeffs[j] * row.coeffs[i] / row.coeffs[j]
                        for i in keep),
                  c.rel, c.rhs - c.coeffs[j] * row.rhs / row.coeffs[j])
        for c in poly.constraints if c != row
    ])

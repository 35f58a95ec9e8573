"""Independent oracles for the integer geometry kernel.

Every expected value here comes from sympy or from a closed form; none
of it runs polyvote code.  The systems and polytopes are drawn at random
by hypothesis and kept small, so vertex enumeration stays cheap."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from polyvote.polytope import HalfSpace, HPolytope, _back_solve, _reduce_against

small_ints = st.integers(min_value=-5, max_value=5)
rationals = st.builds(F, st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))


@st.composite
def square_systems(draw, max_dim=5):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    a = draw(st.lists(st.lists(small_ints, min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim))
    b = draw(st.lists(small_ints, min_size=dim, max_size=dim))
    return a, b


@given(square_systems())
def test_back_solve_matches_sympy_lu_solve(system):
    a, b = system
    mat = sympy.Matrix(a)
    assume(mat.det() != 0)
    x = mat.LUsolve(sympy.Matrix(b))
    den = math.lcm(*(int(xi.q) for xi in x))
    expected = (tuple(int(xi * den) for xi in x), den)

    echelon = []
    for row, rhs in zip(a, b):
        red = _reduce_against(echelon, list(row) + [rhs])
        pivot = next(j for j, v in enumerate(red[:-1]) if v != 0)
        echelon.append((red, pivot))
    assert _back_solve(echelon, len(a)) == expected


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.tuples(rationals, rationals), min_size=d, max_size=d)))
def test_box_volume_is_product_of_sides(bounds):
    assume(all(lo != hi for lo, hi in bounds))
    bounds = [(min(lo, hi), max(lo, hi)) for lo, hi in bounds]
    dim = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        e = tuple(int(i == j) for j in range(dim))
        rows += [HalfSpace(e, ">=", lo), HalfSpace(e, "<=", hi)]
    assert HPolytope(dim, rows).volume() == math.prod(hi - lo for lo, hi in bounds)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.lists(rationals, min_size=d, max_size=d),
                       min_size=d + 1, max_size=d + 1)))
def test_simplex_volume_matches_sympy_determinant(points):
    dim = len(points[0])
    v0 = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in points[0]])
    edges = sympy.Matrix.hstack(*(
        sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in p]) - v0
        for p in points[1:]
    ))
    det = edges.det()
    assume(det != 0)
    # x = v0 + edges * y with y >= 0 and sum(y) <= 1
    inv = edges.inv()
    rows = []
    for i in range(dim):
        coeffs = tuple(F(str(c)) for c in inv.row(i))
        rows.append(HalfSpace(coeffs, ">=", F(str((inv.row(i) * v0)[0]))))
    total = sympy.ones(1, dim) * inv
    rows.append(HalfSpace(tuple(F(str(c)) for c in total), "<=",
                          F(str(1 + (total * v0)[0]))))
    expected = abs(det) / sympy.factorial(dim)
    assert HPolytope(dim, rows).volume() == F(str(expected))


def _irwin_hall_cdf(n, t):
    return F(sum((-1) ** j * math.comb(n, j) * (t - j) ** n
                 for j in range(math.floor(t) + 1)), math.factorial(n))


@pytest.mark.parametrize("won, expected", [
    (5, F(4541, 10321920)), (6, F(31, 1290240)), (7, F(1, 10321920)),
])
def test_capped_district_polytope_matches_irwin_hall(won, expected):
    # won districts x_i in [1/2, 1], lost ones in [0, 1/2], sum(x) <= 4;
    # with x_i = (won_i + u_i) / 2 the region is the unit cube of u cut
    # by sum(u) <= 8 - won, scaled by 2^-8
    districts = 8
    assert expected == _irwin_hall_cdf(districts, districts - won) / 2**districts
    rows = []
    for i in range(districts):
        e = tuple(int(i == j) for j in range(districts))
        lo, hi = (F(1, 2), F(1)) if i < won else (F(0), F(1, 2))
        rows += [HalfSpace(e, ">=", lo), HalfSpace(e, "<=", hi)]
    rows.append(HalfSpace((1,) * districts, "<=", F(districts, 2)))
    assert HPolytope(districts, rows).volume() == expected

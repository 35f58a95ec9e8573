"""Independent oracles for the integer geometry kernel.

Every expected value here comes from sympy or from a closed form; none
of it runs polyvote code.  The systems and polytopes are drawn at random
by hypothesis and kept small, so vertex enumeration stays cheap."""

import itertools
import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

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


def _capped_district_rows(won, districts=8):
    # won districts x_i in [1/2, 1], lost ones in [0, 1/2], sum(x) <= N/2
    rows = []
    for i in range(districts):
        e = tuple(int(i == j) for j in range(districts))
        lo, hi = (F(1, 2), F(1)) if i < won else (F(0), F(1, 2))
        rows += [(e, ">=", lo), (e, "<=", hi)]
    rows.append(((1,) * districts, "<=", F(districts, 2)))
    return rows


def _polytope(dim, rows):
    return HPolytope(dim, [HalfSpace(c, rel, rhs) for c, rel, rhs in rows])


@pytest.mark.parametrize("won, expected", [
    (5, F(4541, 10321920)), (6, F(31, 1290240)), (7, F(1, 10321920)),
])
def test_capped_district_polytope_matches_irwin_hall(won, expected):
    # with x_i = (won_i + u_i) / 2 the region is the unit cube of u cut
    # by sum(u) <= 8 - won, scaled by 2^-8
    districts = 8
    assert expected == _irwin_hall_cdf(districts, districts - won) / 2**districts
    assert _polytope(districts, _capped_district_rows(won)).volume() == expected


# -- vertex enumeration against brute force ---------------------------------


def _brute_force_vertices(dim, rows):
    """Every feasible point that solves some d-subset of the rows as
    equations, deduplicated, in the order ``enumerate_vertices`` uses:
    by the numerators over the least common denominator, then by it.
    Rows are (coeffs, rel, rhs); a subset holding two parallel rows is
    singular and skipped before sympy sees it."""
    int_rows = []
    for coeffs, rel, rhs in rows:
        scale = math.lcm(*(F(c).denominator for c in coeffs), F(rhs).denominator)
        a = [int(c * scale) for c in coeffs]
        if any(a):
            int_rows.append((a, rel, int(rhs * scale)))
    directions = []
    for a, _, _ in int_rows:
        g = math.gcd(*a) * (1 if next(v for v in a if v) > 0 else -1)
        directions.append(tuple(v // g for v in a))
    found = set()
    for subset in itertools.combinations(range(len(int_rows)), dim):
        if len({directions[i] for i in subset}) < dim:
            continue
        lhs = DomainMatrix([[ZZ(v) for v in int_rows[i][0]] for i in subset], (dim, dim), ZZ)
        rhs = DomainMatrix([[ZZ(int_rows[i][2])] for i in subset], (dim, 1), ZZ)
        try:
            x, den = lhs.solve_den(rhs)
        except DMNonInvertibleMatrixError:
            continue
        sign = 1 if den > 0 else -1
        nums = [sign * int(v) for v in x.to_list_flat()]
        den = sign * int(den)
        if all(_holds(sum(c * v for c, v in zip(a, nums)), rel, b * den)
               for a, rel, b in int_rows):
            found.add(tuple(F(v, den) for v in nums))

    def order(v):
        den = math.lcm(*(x.denominator for x in v))
        return tuple(int(x * den) for x in v), den

    return tuple(sorted(found, key=order))


def _holds(lhs, rel, rhs):
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


@st.composite
def degenerate_polytopes(draw):
    """A box, some sides of it flat, cut by rows through its corners or
    its centre (some of them equalities), with rows repeated at other
    scales, and now and then a row no point of the box meets."""
    dim = draw(st.integers(min_value=1, max_value=4))
    lo = [F(draw(st.integers(-4, 2)), 2) for _ in range(dim)]
    hi = [v + F(draw(st.integers(0, 4)), 2) for v in lo]
    rows = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rows += [(e, ">=", lo[i]), (e, "<=", hi[i])]
    for _ in range(draw(st.integers(0, 3))):
        coeffs = tuple(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
        point = draw(st.sampled_from((
            [draw(st.sampled_from((l, h))) for l, h in zip(lo, hi)],
            [(l + h) / 2 for l, h in zip(lo, hi)],
        )))
        rel = draw(st.sampled_from(("<=", ">=", "=")))
        rows.append((coeffs, rel, sum(c * v for c, v in zip(coeffs, point))))
    for coeffs, rel, rhs in draw(st.lists(st.sampled_from(rows), max_size=2)):
        s = draw(st.sampled_from((F(2), F(1, 3), F(5, 2))))
        rows.append((tuple(s * c for c in coeffs), rel, s * rhs))
    if draw(st.integers(0, 3)) == 0:
        rows.append(((1,) * dim, ">=", sum(hi) + 1))
    return dim, rows


@given(degenerate_polytopes())
def test_vertices_match_brute_force_on_degenerate_polytopes(case):
    dim, rows = case
    vertices = _polytope(dim, rows).enumerate_vertices().vertices
    assert vertices == _brute_force_vertices(dim, rows)


@pytest.mark.parametrize("won", [5, 6, 7])
def test_capped_district_vertices_match_brute_force(won):
    rows = _capped_district_rows(won)
    vertices = _polytope(8, rows).enumerate_vertices().vertices
    assert vertices == _brute_force_vertices(8, rows)

from fractions import Fraction as F
from itertools import product
from math import ceil, comb, floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyvote import ehrhart
from polyvote.ehrhart import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    PeriodTooSmallError,
    Quasipolynomial,
    _floor_sum,
    _le_rows,
    _memo_keys,
    _polygon_count,
    _series_denominator,
    _shadows,
    count_lattice_points,
    ehrhart_pipeline,
    period_bound,
    region_count,
)
from polyvote.polytope import EventRegion, HPolytope
from polyvote.socialchoice import ANTIPLURALITY, BORDA, PLURALITY, manipulability_event

from helpers import (
    MANIPULABLE_UNION_SERIES,
    CountTable,
    RationalGF,
    bounding_box,
    brute_count,
    expand_factors,
    gf_coefficients,
    interpolate_quasipolynomial,
    poly_mul,
    positive_dilation_fit,
)


def ge(coeffs, rhs=0):
    return tuple(coeffs), ">=", rhs


def le(coeffs, rhs):
    return tuple(coeffs), "<=", rhs


def standard_simplex(dim):
    rows = [ge(tuple(int(i == j) for j in range(dim))) for i in range(dim)]
    rows.append(le((1,) * dim, 1))
    return HPolytope(dim, rows)


def unit_box(dim):
    rows = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rows += [ge(e), le(e, 1)]
    return HPolytope(dim, rows)


# -- counting ----------------------------------------------------------------


def test_simplex_counts_are_binomials():
    simplex = standard_simplex(5)
    for n in (0, 1, 2, 7, 20):
        assert count_lattice_points(simplex, n) == comb(n + 5, 5)


def test_count_at_zero_is_one_for_nonempty():
    # the 0-fold dilation of any nonempty polytope is the single point 0
    assert count_lattice_points(unit_box(3), 0) == 1
    shifted = HPolytope(2, [ge((1, 0), 3), le((1, 0), 4), ge((0, 1), 1), le((0, 1), 2)])
    assert count_lattice_points(shifted, 0) == 1


def test_count_of_empty_polytope_is_zero():
    empty = HPolytope(2, [ge((1, 0), 2), le((1, 0), 1), ge((0, 1)), le((0, 1), 1)])
    assert count_lattice_points(empty, 5) == 0


def test_count_rejects_negative_dilation():
    with pytest.raises(ValueError):
        count_lattice_points(unit_box(2), -1)


def test_count_matches_brute_force_on_skew_polytope():
    skew = HPolytope(
        3,
        [ge((1, 0, 0)), ge((0, 1, 0)), ge((0, 0, 1)),
         le((2, 1, 0), 3), le((0, 1, 3), 4), le((1, 1, 1), 3)],
    )
    for n in (1, 2, 3, 5):
        assert count_lattice_points(skew, n) == brute_count(skew, n)


def test_count_handles_equality_constraints():
    # cube slice x + y + z = n/2: lattice points need an even dilation
    p = HPolytope(
        3,
        [ge((1, 0, 0)), ge((0, 1, 0)), ge((0, 0, 1)),
         le((1, 0, 0), 1), le((0, 1, 0), 1), le((0, 0, 1), 1),
         ((1, 1, 1), "=", F(1, 2))],
    )
    assert count_lattice_points(p, 2) == 3  # permutations of (1,0,0)
    assert count_lattice_points(p, 3) == 0
    assert count_lattice_points(p, 4) == 6  # (2,0,0)x3 and (1,1,0)x3


@given(st.integers(0, 50), st.integers(1, 20), st.integers(-100, 100), st.integers(-100, 100))
def test_floor_sum_matches_the_naive_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@st.composite
def polygon_sections(draw):
    """One to four bounds (j, a, c) on y from above and from below, each
    c.y <= res[j] - a.x or -c.y <= res[j] - a.x with 0 < c <= 4, over an
    x interval that may be empty: slopes tie, lines cross inside the
    interval, and many sections hold no integer y."""
    bounds = []
    for _ in range(2):
        bounds.append(tuple(
            (len(bounds) * 4 + i, draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
            for i in range(draw(st.integers(1, 4)))
        ))
    res = draw(st.lists(st.integers(-30, 30), min_size=8, max_size=8))
    xlo = draw(st.integers(-10, 10))
    return (*bounds, res, xlo, xlo + draw(st.integers(-1, 20)))


@given(polygon_sections())
def test_polygon_count_matches_a_scan_over_x(case):
    upper, lower, res, xlo, xhi = case
    expected = 0
    for x in range(xlo, xhi + 1):
        top = min((res[j] - a * x) // c for j, a, c in upper)
        bottom = max(-((res[j] - a * x) // c) for j, a, c in lower)
        expected += max(0, top - bottom + 1)
    assert _polygon_count(upper, lower, res, xlo, xhi) == expected


@st.composite
def cut_boxes(draw):
    """A box of dimension 2 to 4 with sides in multiples of 1/2, some
    of them flat, cut by one to three rows through points of the box,
    some of them equalities."""
    dim = draw(st.integers(2, 4))
    rows = []
    lo = [F(draw(st.integers(-2, 2)), 2) for _ in range(dim)]
    hi = [v + F(draw(st.integers(0, 4 if dim < 4 else 2)), 2) for v in lo]
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rows += [ge(e, lo[i]), le(e, hi[i])]
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        point = [l + (h - l) * F(draw(st.integers(0, 4)), 4) for l, h in zip(lo, hi)]
        rel = draw(st.sampled_from(("<=", "<=", ">=", "=")))
        rows.append((tuple(coeffs), rel, sum(c * v for c, v in zip(coeffs, point))))
    return HPolytope(dim, rows)


def _shadows_hold(rows, shadows, rhs, prefix):
    """Whether every shadow row of the levels < len(prefix) holds at the
    integer prefix, for the right-hand sides ``rhs`` of ``rows``."""
    for level, x in enumerate(prefix):
        res = [r - sum(a * v for a, v in zip(coeffs, prefix[:level]))
               for (coeffs, _, _), r in zip(rows, rhs)]
        above, below = shadows[level]
        for sign, bounds in ((1, above), (-1, below)):
            if any(sign * c * x > sum(m * res[j] for j, m in lam) for c, lam in bounds):
                return False
    return True


@settings(max_examples=100)
@given(cut_boxes(), st.integers(1, 3))
def test_shadows_hold_exactly_on_the_prefixes_of_real_points(poly, n):
    # fixing the prefix by `=` rows and asking double description, which
    # shares no code with the projection, whether any real point is left
    assume(not poly.is_empty())
    rows = _le_rows(poly)
    shadows = _shadows(rows, poly.dim)
    rhs = [b * n for _, b, _ in rows]
    dilated = [(coeffs, rel, b * n) for coeffs, rel, b in poly.integer_rows()]
    lo, hi = bounding_box(poly)
    axes = [range(ceil(n * a), floor(n * b) + 1) for a, b in zip(lo, hi)]
    for length in range(1, poly.dim + 1):
        for prefix in product(*axes[:length]):
            fixed = HPolytope(poly.dim, dilated + [
                (tuple(int(i == j) for j in range(poly.dim)), "=", v) for i, v in enumerate(prefix)
            ])
            assert _shadows_hold(rows, shadows, rhs, prefix) == (not fixed.is_empty()), prefix


def test_shadow_multipliers_are_nonnegative_and_cancel_every_later_coordinate():
    polys = [term for rule in (PLURALITY, BORDA, ANTIPLURALITY)
             for _, term in manipulability_event(rule).terms]
    polys += [standard_simplex(5), unit_box(4)]
    for poly in polys:
        rows = _le_rows(poly)
        for level, (above, below) in enumerate(_shadows(rows, poly.dim)):
            assert above and below
            for sign, bounds in ((1, above), (-1, below)):
                for c, lam in bounds:
                    assert c > 0 and all(m > 0 for _, m in lam)
                    assert len({j for j, _ in lam}) == len(lam)
                    combined = [sum(m * rows[j][0][i] for j, m in lam) for i in range(poly.dim)]
                    assert combined[level] == sign * c
                    assert not any(combined[level + 1:])


def test_count_budget_guard():
    # x0 takes 1001 values, each a node at the memoized level 1; all but
    # the first are memo hits, and the first enumerates x1 over 1001
    # values whose polygons (x2, x3) cost nothing: 2002 nodes in all
    assert count_lattice_points(unit_box(4), 1000, budget=2002) == 1001**4
    with pytest.raises(BudgetExceededError) as err:
        count_lattice_points(unit_box(4), 1000, budget=2001)
    assert err.value.nodes == 2002
    assert err.value.dilation == 1000
    assert str(err.value) == "dilation 1000 reached 2002 nodes (budget 2001)"


def test_count_budget_guard_charges_the_range_before_enumerating_it():
    # the first level charges its 100001 values before visiting any
    with pytest.raises(BudgetExceededError) as err:
        count_lattice_points(unit_box(3), 100000, budget=1000)
    assert err.value.nodes == 100001
    # a one-dimensional count and a two-dimensional polygon cost nothing
    assert count_lattice_points(unit_box(1), 10**6, budget=0) == 10**6 + 1
    assert count_lattice_points(unit_box(2), 10**6, budget=0) == (10**6 + 1) ** 2


def test_count_monotone_under_inclusion():
    inner = standard_simplex(3)
    outer = HPolytope(3, list(inner.integer_rows())[:-1] + [le((1, 1, 1), 2)])
    for n in (3, 8):
        assert count_lattice_points(inner, n) <= count_lattice_points(outer, n)


def test_region_count_inclusion_exclusion():
    cube = unit_box(2)
    left = cube.intersect(HPolytope(2, [le((1, 0), F(1, 2))]))
    right = cube.intersect(HPolytope(2, [ge((1, 0), F(1, 2))]))
    overlap = left.intersect(right)
    region = EventRegion(((1, left), (1, right), (-1, overlap)))
    for n in (1, 2, 5):
        assert region_count(region, n) == count_lattice_points(cube, n)


# -- generating functions ----------------------------------------------------


def test_geometric_series_coefficients():
    table = gf_coefficients(RationalGF([1], [1, -1]), 10)
    assert all(table.entries[n] == 1 for n in range(11))


def test_binomial_series_coefficients():
    den = expand_factors([([1, -1], 6)])
    table = gf_coefficients(RationalGF([1], den), 12)
    assert all(table.entries[n] == comb(n + 5, 5) for n in range(13))


def test_gf_requires_nonzero_constant_denominator():
    with pytest.raises(ValueError):
        RationalGF([1], [0, 1])


def test_gf_normalizes_constant_term():
    gf = RationalGF([2], [2, -2])
    assert gf.denominator[0] == 1
    assert gf_coefficients(gf, 3).entries == {0: 1, 1: 1, 2: 1, 3: 1}


def test_poly_mul():
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]


def test_count_table_rejects_negative():
    with pytest.raises(ValueError):
        CountTable({-1: 3})
    with pytest.raises(ValueError):
        CountTable({1: -3})


# -- interpolation -----------------------------------------------------------


def test_interpolation_recovers_polynomial():
    counts = CountTable({n: (n + 1) ** 3 for n in range(0, 9)})
    q = interpolate_quasipolynomial(counts, period=1, degree=3)
    assert q.class_coefficients(0) == (1, 3, 3, 1)
    assert q.evaluate(25) == 26**3


def test_interpolation_needs_enough_points():
    counts = CountTable({0: 1, 1: 8})
    with pytest.raises(ValueError):
        interpolate_quasipolynomial(counts, period=1, degree=3)


def test_interpolation_detects_period_too_small():
    # parity-dependent counts cannot be a single polynomial of degree 1
    counts = CountTable({n: n + (n % 2) for n in range(8)})
    with pytest.raises(PeriodTooSmallError):
        interpolate_quasipolynomial(counts, period=1, degree=1)
    q = interpolate_quasipolynomial(counts, period=2, degree=1)
    assert q.evaluate(11) == 12


def test_quasipolynomial_validation():
    with pytest.raises(ValueError):
        Quasipolynomial(2, 1, ((F(0), F(1)),))  # wrong class count
    q = Quasipolynomial(2, 1, ((F(0), F(1)), (F(1), F(2))))
    with pytest.raises(ValueError):
        q.leading_coefficient()  # classes disagree
    partial = Quasipolynomial(2, 1, ((F(0), F(1)), None))
    with pytest.raises(ValueError):
        partial.evaluate(1)
    assert partial.leading_coefficient() == 1
    constant = Quasipolynomial(1, 0, ((F(1),),))
    assert constant.leading_coefficient() == 1


# -- pipeline ----------------------------------------------------------------


def test_pipeline_unit_cube():
    q = ehrhart_pipeline(unit_box(3))
    assert q.period == 1
    assert q.class_coefficients(0) == (1, 3, 3, 1)


def test_pipeline_unit_square():
    q = ehrhart_pipeline(unit_box(2))
    assert q.period == 1
    assert q.class_coefficients(0) == (1, 2, 1)


def test_pipeline_standard_simplex():
    q = ehrhart_pipeline(standard_simplex(5))
    assert q.period == 1
    assert q.leading_coefficient() == F(1, 120)
    for n in (9, 14):
        assert q.evaluate(n) == comb(n + 5, 5)


def test_pipeline_half_integral_segment():
    seg = HPolytope(1, [ge((1,)), le((2,), 1)])  # [0, 1/2]
    assert period_bound(seg) == 2
    q = ehrhart_pipeline(seg)
    assert q.period == 2
    assert q.evaluate(4) == 3 and q.evaluate(5) == 3
    assert q.leading_coefficient() == F(1, 2)


def test_pipeline_leading_coefficient_equals_volume():
    skew = HPolytope(
        2, [ge((1, 0)), ge((0, 1)), le((1, 2), 2), le((3, 1), 3)]
    )
    q = ehrhart_pipeline(skew)
    assert q.leading_coefficient() == skew.volume()


def _asked_dilations(monkeypatch):
    """The dilations the pipeline asks ``_quasipolynomial_value`` for,
    in order."""
    asked = []
    value = ehrhart._quasipolynomial_value

    def spy(poly, n, budget):
        asked.append(n)
        return value(poly, n, budget)

    monkeypatch.setattr(ehrhart, "_quasipolynomial_value", spy)
    return asked


def test_pipeline_budget_guard_reports_requirements(monkeypatch):
    wide = HPolytope(
        4,
        [ge((3, 0, 0, 0)), le((3, 0, 0, 0), 1),
         ge((0, 5, 0, 0)), le((0, 5, 0, 0), 1),
         ge((0, 0, 7, 0)), le((0, 0, 7, 0), 1),
         ge((0, 0, 0, 11), 0), le((0, 0, 0, 11), 1)],
    )
    assert period_bound(wide) == 3 * 5 * 7 * 11
    # deg D = 5 + 5 (2 + 4 + 6 + 10) + 4 (8 + 12 + 20 + 24 + 40 + 60)
    #         + 2 (48 + 80 + 120 + 240) + 480: the window is -1113 ... 1115
    assert len(_series_denominator(4, [(1, wide)])) - 1 == 2227
    asked = _asked_dilations(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        ehrhart_pipeline(wide, budget=595)
    # the window's largest |n| is counted first: x0 takes 372 values and
    # the first of them (the rest hit its memo) x1 224, the polygon of
    # (x2, x3) costing nothing
    assert asked == [1115]
    assert err.value.dilation == 1115
    assert err.value.nodes == 372 + 224
    assert not hasattr(err.value, "required_counts")


def test_pipeline_budget_guard_reports_the_largest_dilation_on_borda(monkeypatch):
    # deg D = 118: the window is -59 ... 60, whose n = 60 visits more
    # than 10**4 nodes on the first term but fits the default budget
    borda = manipulability_event(BORDA)
    asked = _asked_dilations(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        ehrhart_pipeline(borda, classes=[0], budget=10**4)
    assert asked == [60]
    assert err.value.dilation == 60
    assert "dilation 60 reached" in str(err.value)
    assert err.value.nodes > 10**4
    count_lattice_points(borda.terms[0][1], 60, budget=DEFAULT_BUDGET)


def test_series_denominator_degrees_and_lattice_polytopes():
    for rule, degree in ((PLURALITY, 32), (BORDA, 118), (ANTIPLURALITY, 18)):
        region = manipulability_event(rule)
        assert all(not p.is_empty() for _, p in region.terms)
        assert len(_series_denominator(region.dim, region.terms)) - 1 == degree
    for dim in (1, 2, 3, 5):
        one_minus_t = expand_factors([([1, -1], dim + 1)])
        for poly in (unit_box(dim), standard_simplex(dim)):
            assert _series_denominator(dim, [(1, poly)]) == one_minus_t


def test_series_denominator_is_a_multiple_of_the_plurality_series_denominator():
    region = manipulability_event(PLURALITY)
    d = _series_denominator(region.dim, region.terms)
    deg = len(d) - 1
    series = gf_coefficients(MANIPULABLE_UNION_SERIES, deg + 60).entries
    # D * h / Q is a polynomial of degree < deg D when Q divides D
    product = poly_mul(d, [series[n] for n in range(deg + 61)])
    assert all(c == 0 for c in product[deg : deg + 61])


def test_pipeline_checks_the_window_against_the_recurrence(monkeypatch):
    # (1 - t)^6 annihilates polynomials of degree 5, not plurality's
    # period-12 quasipolynomial: a held-back count must disagree
    region = manipulability_event(PLURALITY)
    monkeypatch.setattr(ehrhart, "_series_denominator",
                        lambda dim, terms: expand_factors([([1, -1], dim + 1)]))
    with pytest.raises(PeriodTooSmallError, match="series recurrence"):
        ehrhart_pipeline(region, classes=[0])


def test_pipeline_restricted_classes():
    seg = HPolytope(1, [ge((1,)), le((2,), 1)])
    q = ehrhart_pipeline(seg, classes=[0])
    assert q.polys[1] is None
    assert q.class_coefficients(0) == (1, F(1, 2))
    assert q.leading_coefficient() == F(1, 2)
    assert ehrhart_pipeline(seg, classes=[]).polys == (None, None)


@st.composite
def small_polytopes(draw, dim):
    """A box with sides in multiples of 1/2 or 1/3, some of them flat,
    cut by up to two rows through its centre, some of them equalities."""
    q = draw(st.sampled_from((1, 2, 3)))
    rows = []
    centre = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        lo = F(draw(st.integers(-2, 2)), q)
        hi = lo + F(draw(st.integers(0, 3)), q)
        rows += [ge(e, lo), le(e, hi)]
        centre.append((lo + hi) / 2)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        rel = draw(st.sampled_from(("<=", ">=", "=")))
        rhs = sum(c * x for c, x in zip(coeffs, centre))
        rows.append((tuple(coeffs), rel, rhs))
    return HPolytope(dim, rows)


@given(st.integers(1, 3).flatmap(small_polytopes))
def test_pipeline_equals_positive_dilation_fit(poly):
    assert ehrhart_pipeline(poly) == positive_dilation_fit(poly)


@settings(max_examples=25)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(small_polytopes(d), small_polytopes(d))))
def test_pipeline_equals_positive_dilation_fit_on_regions(pair):
    p, r = pair
    region = EventRegion(((1, p), (1, r), (-1, p.intersect(r))))
    assert ehrhart_pipeline(region) == positive_dilation_fit(region)


def test_pipeline_fits_every_plurality_class_to_the_series():
    q = ehrhart_pipeline(manipulability_event(PLURALITY))
    assert q.period == 12
    series = gf_coefficients(MANIPULABLE_UNION_SERIES, 12 * 10).entries
    assert all(q.evaluate(n) == c for n, c in series.items())


def _memo_levels_of(poly):
    return list(_memo_keys(_le_rows(poly), poly.dim))


def test_memo_levels_follow_the_rank_rule():
    # plurality rows see x0, x1 only as x0 + x1: the level-2 key repeats
    for _, term in manipulability_event(PLURALITY).terms:
        assert _memo_levels_of(term) == [2]
    # every Borda prefix reaches its own key
    for _, term in manipulability_event(BORDA).terms:
        assert _memo_levels_of(term) == []
    # below levels 2 and 3 the simplex depends only on a partial sum
    assert _memo_levels_of(standard_simplex(5)) == [2, 3]
    assert _memo_levels_of(unit_box(4)) == [1, 2]

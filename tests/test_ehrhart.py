import time
from fractions import Fraction as F
from itertools import product
from math import ceil, comb, floor, isqrt
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyvote import ehrhart
from polyvote.ehrhart import (
    DEFAULT_BUDGET,
    VALIDATION_POINTS,
    BudgetExceededError,
    PeriodTooSmallError,
    _floor_sum,
    _le_rows,
    _memo_keys,
    _polygon_count,
    _series_denominator,
    _series_term,
    _shadows,
    _times_d,
    count_lattice_points,
    ehrhart_series,
    region_count,
)
from polyvote.polytope import EventRegion, HPolytope
from polyvote.socialchoice import (
    ANTIPLURALITY,
    BORDA,
    IAC,
    PLURALITY,
    ScoringRule,
    conjunction,
    manipulability_event,
    margin,
)

from helpers import (
    FAVOR_B_SERIES,
    FAVOR_BOTH_SERIES,
    FAVOR_C_SERIES,
    MANIPULABLE_UNION_SERIES,
    CountTable,
    RationalGF,
    at,
    bounding_box,
    brute_count,
    clear_geometry_memos,
    enumerated_count,
    expand_factors,
    gf_coefficients,
    gf_series,
    interpolate_quasipolynomial,
    poly_mul,
    positive_dilation_fit,
    vertex_lcm,
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


def test_a_memoized_count_is_held_to_its_budget():
    # a count made under a larger budget does not lift a lower one: asked
    # again under the lower budget, it runs again and raises as the
    # first refusal did
    box = unit_box(4)
    with pytest.raises(BudgetExceededError) as cold:
        count_lattice_points(box, 1000, budget=2001)
    assert count_lattice_points(box, 1000, budget=10**6) == 1001**4
    with pytest.raises(BudgetExceededError) as warm:
        count_lattice_points(box, 1000, budget=2001)
    assert ((str(warm.value), warm.value.nodes, warm.value.dilation)
            == (str(cold.value), cold.value.nodes, cold.value.dilation)
            == ("dilation 1000 reached 2002 nodes (budget 2001)", 2002, 1000))
    # one counter refuses, counts a smaller dilation exactly and refuses
    # again: each count starts its own node tally and memos
    count = ehrhart._counter(box, 0, 2001)
    with pytest.raises(BudgetExceededError) as first:
        count(1000)
    assert count(10) == 11**4
    with pytest.raises(BudgetExceededError) as again:
        count(1000)
    assert ((str(first.value), first.value.nodes, first.value.dilation)
            == (str(again.value), again.value.nodes, again.value.dilation)
            == (str(cold.value), cold.value.nodes, cold.value.dilation))
    # the simplex memoizes levels 2 and 3 on what the prefix leaves of n,
    # which recurs from one dilation to the next: a memo kept from n = 20
    # would let n = 30 through in fewer than its 1,023 nodes
    simplex = standard_simplex(5)
    with pytest.raises(BudgetExceededError) as cold:
        ehrhart._counter(simplex, 0, 1022)(30)
    count = ehrhart._counter(simplex, 0, 1022)
    assert count(20) == comb(25, 5)
    with pytest.raises(BudgetExceededError) as warm:
        count(30)
    assert ((str(warm.value), warm.value.nodes, warm.value.dilation)
            == (str(cold.value), cold.value.nodes, cold.value.dilation)
            == ("dilation 30 reached 1023 nodes (budget 1022)", 1023, 30))


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


def test_series_term_halves_the_index():
    # (1 - t)^4 continues the cubes from any four consecutive ones
    cubes = [(n - 2) ** 3 for n in range(4)]
    h = _times_d(cubes, {1: 4}, 1)
    assert _series_term(h, {1: 4}, 10**6) == (10**6 - 2) ** 3


@st.composite
def factored_series(draw):
    """(h, exps): D = prod_k Phi_k^c_k for random c_k, as the factors
    {j: e_j} of prod_j (1 - t^j)^e_j, e_j = c_j less the e of j's proper
    multiples, and a random h with deg h < deg D."""
    top = draw(st.integers(1, 8))
    mult = draw(st.lists(st.integers(0, 3), min_size=top, max_size=top))
    exps = {}
    for k in range(top, 0, -1):
        exps[k] = mult[k - 1] - sum(exps[j] for j in range(2 * k, top + 1, k))
    exps = {j: e for j, e in exps.items() if e}
    deg = sum(j * e for j, e in exps.items())
    assume(deg > 0)
    h = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
    return h, exps


@settings(max_examples=60)
@given(factored_series(), st.integers(0, 2000))
def test_series_primitive_matches_the_expanded_recurrence(case, i):
    h, exps = case
    # h / D = h Q / P, P and Q the factors with positive and negative e_j
    series = gf_series(RationalGF(poly_mul(h, _cyclotomic(exps, -1)), _cyclotomic(exps, 1)), i)
    size = max(i + 1, len(h))
    assert _times_d(h + [0] * (size - len(h)), exps, -1)[: i + 1] == series
    assert _series_term(h, exps, i) == series[i]


def _cyclotomic(exps, sign):
    """prod (1 - t^j)^(sign.e_j) over D's factors whose sign.e_j > 0."""
    return expand_factors([([1] + [0] * (j - 1) + [-1], sign * e)
                           for j, e in exps.items() if sign * e > 0])


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _plurality_term(i):
    return EventRegion.of(manipulability_event(PLURALITY).terms[i][1])


STANDARD_FORMS = {
    "unit cube": (lambda: EventRegion.of(unit_box(3)),
                  RationalGF([1, 4, 1, 0], expand_factors([([1, -1], 4)]))),
    "the point (1/2, 1/3)": (
        lambda: EventRegion.of(HPolytope(2, [((2, 0), "=", 1), ((0, 3), "=", 1)])),
        RationalGF([1], [1, 0, 0, 0, 0, 0, -1])),
    "IAC share simplex": (lambda: IAC, RationalGF([1], expand_factors([([1, -1], 6)]))),
    "plurality favor b": (lambda: _plurality_term(0), FAVOR_B_SERIES),
    "plurality favor c": (lambda: _plurality_term(1), FAVOR_C_SERIES),
    "plurality favor both": (lambda: _plurality_term(2), FAVOR_BOTH_SERIES),
    "plurality manipulable": (lambda: manipulability_event(PLURALITY),
                              MANIPULABLE_UNION_SERIES),
}


@pytest.mark.parametrize("name", STANDARD_FORMS)
def test_the_series_is_sum_f_n_t_n_from_n_zero(name):
    # h / D against a numerator and denominator that share no polyvote
    # code, as rational functions: h.den == num.D, with D's factors of
    # negative exponent multiplied over to the other side
    region, gf = STANDARD_FORMS[name]
    series = ehrhart_series(region())
    lhs = poly_mul(poly_mul(list(series.h), _cyclotomic(series.factors, -1)), gf.denominator)
    assert _trimmed(lhs) == _trimmed(poly_mul(gf.numerator, _cyclotomic(series.factors, 1)))


def test_window_nodes_sums_the_window():
    for dim in (3, 4, 5, 7):
        for deg in range(40):
            half = deg // 2
            window = range(-half, -half + deg + VALIDATION_POINTS)
            assert ehrhart._window_span(deg) == window
            assert (ehrhart._window_nodes(deg, dim)
                    == sum((abs(n) + 1) ** (dim - 2) for n in window))


def _degree(exps):
    return sum(j * e for j, e in exps.items())


def _passes(exps, n):
    """The strided passes of the halving rounds that read the count at n."""
    rounds = ehrhart._halvings(exps, n)
    return sum(abs(e) for _, f in rounds for e in f.values())


def _series_cost(exps, n, dim, tests):
    """(cost, steps) of reading the count at n off the series as
    ``region_count`` prices it: the window's nodes, and the steps of D's
    build and of the cheaper read, extending h over D (n + 1
    coefficients per factor pass) or halving (2 deg D per factor pass of
    each round)."""
    deg = _degree(exps)
    read = min((n + 1) * sum(abs(e) for e in exps.values()), 2 * deg * _passes(exps, n))
    steps = tests + read
    return ehrhart._window_nodes(deg, dim) + steps, steps


def _first_series_dilation(region, exps):
    """An n at which a count of the region (dim 3 or 4) reads the series
    denominator of factors ``exps``: n is raised to the root of the
    series cost at n until enumeration's (n + 1)^(dim - 2) nodes exceed
    it."""
    dim = region.dim
    # D's build tests each vertex denominator of a term by its divisors
    tests = sum(len(ehrhart._divisors(t)) * len(ehrhart.polytope._vertices(t))
                for _, t in region.terms if not t.is_empty())
    n = 0
    while True:
        cost, steps = _series_cost(exps, n, dim, tests)
        if cost < (n + 1) ** (dim - 2):
            assert steps <= DEFAULT_BUDGET
            return n
        n = max(n + 1, cost if dim == 3 else isqrt(cost))


@settings(max_examples=50)
@given(st.integers(3, 4).flatmap(lambda d: st.tuples(small_polytopes(d), small_polytopes(d))),
       st.booleans())
def test_region_count_equals_enumeration_past_and_inside_the_window(pair, union):
    p, r = pair
    region = EventRegion(((1, p), (1, r), (-1, p.intersect(r)))) if union else EventRegion.of(p)
    terms = [(s, t) for s, t in region.terms if not t.is_empty()]
    assume(terms)
    exps, _ = _series_denominator(tuple(terms))
    deg = _degree(exps)
    past = _first_series_dilation(region, exps)
    # the oracle enumerates nP at n = past, about 15 us a node
    assume((past + 1) ** (region.dim - 2) <= 50_000)
    inside = ehrhart._window_span(deg)[-1]
    for n, reads_series in ((past, True), (inside, False)):
        with mock.patch.object(ehrhart, "_series", wraps=ehrhart._series) as series:
            assert region_count(region, n) == enumerated_count(region, n)
        assert series.called == reads_series


class _Enumerated(Exception):
    pass


def _route_spies(monkeypatch, stop_at=None):
    """The dilations ``count_lattice_points`` is asked for and the
    dimensions ``_series_denominator`` builds D in (its memo's misses,
    from empty memos of D and of the series), as lists that fill as
    ``region_count`` runs; an enumeration at ``stop_at`` raises
    _Enumerated instead of counting."""
    counted, built = [], []
    count, denominator = ehrhart.count_lattice_points, ehrhart._series_denominator
    denominator.cache_clear()
    ehrhart._series.cache_clear()

    def count_spy(poly, n, budget=DEFAULT_BUDGET):
        counted.append(n)
        if n == stop_at:
            raise _Enumerated
        return count(poly, n, budget)

    def denominator_spy(terms):
        misses = denominator.cache_info().misses
        exps = denominator(terms)
        if denominator.cache_info().misses > misses:
            built.append(terms[0][1].dim)
        return exps

    monkeypatch.setattr(ehrhart, "count_lattice_points", count_spy)
    monkeypatch.setattr(ehrhart, "_series_denominator", denominator_spy)
    return counted, built


def test_region_count_takes_the_route_with_fewer_nodes(monkeypatch):
    counted, built = _route_spies(monkeypatch, stop_at=120)
    assert region_count(manipulability_event(PLURALITY), 96) == 4176821
    assert 96 not in counted and built == [5]
    # plurality: deg D = 24, a window of 19,305 nodes, and 1,138 steps:
    # 168 to build D (each term's 14 vertices times its 4 divisors
    # 1, 2, 3, 4) and 97 * 10 to extend h over D to n = 96, D having
    # 10 factor passes, where halving 96 down would take rounds of 100
    # factor passes in all, 2 * 24 * 100 steps; against 97^3 nodes
    exps, tests = _series_denominator(manipulability_event(PLURALITY).terms)
    assert tests == 3 * 14 * 4
    assert (_degree(exps), _passes(exps, 96)) == (24, 100)
    assert sum(abs(e) for e in exps.values()) == 10
    assert ehrhart._window_nodes(24, 5) == 19305
    assert _series_cost(exps, 96, 5, 3 * 14 * 4) == (20443, 1138)
    # Borda: deg D = 90, a window of 2,440,944 nodes and 2,603 steps
    # (425 to build D, 121 * 18 to extend h, fewer than 2 * 90 * 142
    # to halve) against 121^3
    counted.clear()
    built.clear()
    with pytest.raises(_Enumerated):
        region_count(manipulability_event(BORDA), 120)
    assert counted == [120] and built == [5]
    exps, tests = _series_denominator(manipulability_event(BORDA).terms)
    assert tests == 425
    assert (_degree(exps), _passes(exps, 120)) == (90, 142)
    assert sum(abs(e) for e in exps.values()) == 18
    assert _series_cost(exps, 120, 5, 425) == (2443547, 2603)
    assert 2443547 > 121**3
    # a segment always enumerates
    counted.clear()
    built.clear()
    seg = EventRegion.of(HPolytope(1, [ge((1,)), le((3,), 1)]))
    assert region_count(seg, 10**12) == 10**12 // 3 + 1
    assert region_count(seg, 10**400) == 10**400 // 3 + 1  # past any float
    assert counted == [10**12, 10**400] and built == []
    # rule M's vertex denominators bound deg D below by 1.27e18, so its
    # counts enumerate without building D
    rule_m = manipulability_event(ScoringRule(F(9307, 25000)))
    assert max(den for _, t in rule_m.terms for _, den in ehrhart.polytope._vertices(t)) > 10**18
    counted.clear()
    for n in range(11):
        region_count(rule_m, n)
    assert built == [] and sorted(set(counted)) == list(range(11))


PLURALITY_CLASSES = {
    0: (1, F(137, 120), F(15, 32), F(3, 32), F(1, 108), F(7, 17280)),
    1: (F(-209, 1296), F(-917, 17280), F(5, 36), F(341, 5184), F(1, 108), F(7, 17280)),
    6: (F(5, 8), F(61, 60), F(15, 32), F(3, 32), F(1, 108), F(7, 17280)),
}


def _count_spy(monkeypatch):
    """A list that gets one entry per count made from here on through a
    counter of ``ehrhart._counter`` (one count of one term at one
    dilation), in order: the dilation n of a count of nP, and -k of a
    count of the relative interior of kP."""
    calls = []
    counter = ehrhart._counter

    def spy(poly, interior, budget):
        count = counter(poly, interior, budget)
        return lambda n: calls.append(-n if interior else n) or count(n)

    monkeypatch.setattr(ehrhart, "_counter", spy)
    return calls


def _series_work(counts):
    """(hits, misses) of the memo of the series, the number of counts
    made, and (hits, misses) of the memo of D."""
    return (ehrhart._series.cache_info()[:2], len(counts),
            ehrhart._series_denominator.cache_info()[:2])


def test_region_count_after_the_pipeline_visits_no_count_node(monkeypatch):
    # the series builds D and counts the window n = -12 ... 13 on each
    # of the three terms, 78 counts; region_count at n = 96 prices its
    # route on D from the memo and reads the same series from its memo,
    # summing no window and counting nothing
    region = manipulability_event(PLURALITY)
    clear_geometry_memos()
    counts = _count_spy(monkeypatch)
    assert ehrhart_series(region).fit([0, 1, 6]) == PLURALITY_CLASSES
    assert _series_work(counts) == ((0, 1), 78, (0, 1))  # series, counts, D
    with mock.patch.object(ehrhart, "_window", wraps=ehrhart._window) as window:
        assert region_count(region, 96) == 4176821
    assert not window.called
    assert _series_work(counts) == ((1, 1), 78, (1, 1))


def test_the_pipeline_after_region_count_visits_no_count_node(monkeypatch):
    # the same sharing the other way round: region_count builds D to
    # price its route, and the series it builds reads that D from the
    # memo; ehrhart_series then returns the memoized series to fit on
    region = manipulability_event(PLURALITY)
    clear_geometry_memos()
    counts = _count_spy(monkeypatch)
    assert region_count(region, 96) == 4176821
    assert _series_work(counts) == ((0, 1), 78, (1, 1))
    with mock.patch.object(ehrhart, "_window", wraps=ehrhart._window) as window:
        fitted = ehrhart_series(region).fit([0, 1, 6])
    assert not window.called
    assert fitted == PLURALITY_CLASSES
    assert _series_work(counts) == ((1, 1), 78, (1, 1))


def test_weighted_regions_count_and_fit_their_weight_times(monkeypatch):
    # the terms of manipulable:plurality, each weighted by 6: both count
    # routes and the series sum weight times count
    region = manipulability_event(PLURALITY)
    six = EventRegion([(6 * s, p) for s, p in region.terms])
    counted, _ = _route_spies(monkeypatch)
    # n = 10 enumerates; n = 96 and 1000 read the series
    assert region_count(six, 10) == 6 * region_count(region, 10)
    assert 10 in counted
    for n in (96, 1000):
        assert region_count(six, n) == 6 * region_count(region, n)
        assert n not in counted, n
    lead = ehrhart_series(six).fit([0])[0][-1]
    assert lead == 6 * ehrhart_series(region).fit([0])[0][-1]
    assert lead == six.volume()


def test_region_count_reads_plurality_at_a_billion():
    region = manipulability_event(PLURALITY)
    t0 = time.perf_counter()
    value = region_count(region, 10**9)
    elapsed = time.perf_counter() - t0
    (coeffs,) = ehrhart_series(region).fit([10**9]).values()
    assert value == at(coeffs, 10**9)
    assert elapsed < 1
    # D's build, 168 tests (3 terms of 14 vertices, 4 divisors each),
    # and the 30 halvings, of 468 factor passes in all over 2 * 24
    # coefficients, take 168 + 22,464 = 22,632 steps: a smaller budget
    # enumerates, which passes it at once
    exps, _ = _series_denominator(region.terms)
    assert _passes(exps, 10**9) == 468
    assert _series_cost(exps, 10**9, 5, 168)[1] == 22632
    assert region_count(region, 10**9, budget=22632) == value
    with pytest.raises(BudgetExceededError):
        region_count(region, 10**9, budget=22631)


def _wide_box(shift=0):
    """[shift/7, (shift + 1)/7] x [0, 1/11] x [0, 1/13], with deg D = 1312.

    Its vertex denominators are the 8 divisors of 1001, and a prime q
    among 7, 11, 13 divides the denominators of a facet's vertices
    alone: Phi_1^4, Phi_q^3 for each q, Phi_pq^2 and Phi_1001, 28 less
    than Stanley's Phi_q^4, of degree 1340."""
    return HPolytope(3, [ge((7, 0, 0), shift), le((7, 0, 0), shift + 1), ge((0, 11, 0)),
                         le((0, 11, 0), 1), ge((0, 0, 13)), le((0, 0, 13), 1)])


def test_region_count_charges_the_series_steps():
    # at n = 10^6 the window's 432,963 nodes and the 209,984 steps of
    # D's build (8 vertices times 8 divisors) and of halving rounds of
    # 80 factor passes in all (2 * 1312 * 80) cost less than
    # enumeration's 10^6 + 1 nodes, but a budget of 1000 does not hold
    # those steps: the count enumerates and stops at once
    box = _wide_box()
    exps, tests = _series_denominator(((1, box),))
    assert tests == 64
    assert (_degree(exps), _passes(exps, 10**6)) == (1312, 80)
    cost, steps = _series_cost(exps, 10**6, 3, 64)
    assert ehrhart._window_nodes(1312, 3) == 432963 < cost == 642947 < 10**6 + 1
    assert steps == 209984 > 1000
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="dilation 1000000 reached"):
        region_count(EventRegion.of(box), 10**6, budget=1000)
    assert time.perf_counter() - t0 < 1


def test_region_count_reads_a_wide_box_at_ten_million():
    # the rounds are priced by the factors each one has, 96 passes in
    # all, so the series costs 432,963 + 64 + 2 * 1312 * 96 = 684,931
    # against 10^7 + 1 nodes
    box = _wide_box()
    n = 10**7
    exps, _ = _series_denominator(((1, box),))
    assert _passes(exps, n) == 96
    assert _series_cost(exps, n, 3, 64) == (684931, 251968)
    with mock.patch.object(ehrhart, "count_lattice_points", wraps=count_lattice_points) as count:
        value = region_count(EventRegion.of(box), n)
    assert value == (n // 7 + 1) * (n // 11 + 1) * (n // 13 + 1)
    assert n not in [call.args[1] for call in count.call_args_list]


def test_region_count_reads_a_long_period_without_its_classes():
    # conv{e1/5, e2/7, e3/11, -e1/13, -e2/17, -e3/19}: period 1,616,615
    # but deg D = 70, and the halving reads D's factors, not the period
    octahedron = HPolytope(3, [
        le(tuple(p if s > 0 else -q for s, p, q in zip(signs, (5, 7, 11), (13, 17, 19))), 1)
        for signs in product((1, -1), repeat=3)
    ])
    assert vertex_lcm(octahedron) == 1616615
    exps, _ = _series_denominator(((1, octahedron),))
    assert _degree(exps) == 70
    h = ehrhart._window([(1, octahedron)], exps, DEFAULT_BUDGET)
    assert _series_term(h, exps, 50000) == count_lattice_points(octahedron, 50000)
    t0 = time.perf_counter()
    with mock.patch.object(ehrhart, "count_lattice_points", wraps=count_lattice_points) as count:
        value = region_count(EventRegion.of(octahedron), 10**9)
    assert time.perf_counter() - t0 < 1
    assert 10**9 not in [call.args[1] for call in count.call_args_list]
    assert value == _series_term(h, exps, 10**9)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 101, 1001, 10**9 + 1])
def test_condorcet_winner_counts_follow_gehrlein_and_fishburn_at_odd_n(n):
    # 3 count(a wins) / C(n + 5, 5) = 15 (n + 3)^2 / (16 (n + 2) (n + 4)):
    # odd n has no pairwise tie; D = (1 - t^2)^6, so a large n reads the
    # series
    count = region_count(EventRegion.of(conjunction((margin("a", "b"), margin("a", "c")))), n)
    assert F(3 * count, comb(n + 5, 5)) == F(15 * (n + 3) ** 2, 16 * (n + 2) * (n + 4))


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
    assert q == {0: (1, 3, 3, 1)}
    assert at(q[0], 25) == 26**3


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
    assert at(q[1], 11) == 12


# -- series and fits ---------------------------------------------------------


def test_pipeline_unit_cube():
    series = ehrhart_series(EventRegion.of(unit_box(3)))
    assert series.period == 1
    assert series.fit(range(series.period)) == {0: (1, 3, 3, 1)}


def test_pipeline_unit_square():
    series = ehrhart_series(EventRegion.of(unit_box(2)))
    assert series.period == 1
    assert series.fit(range(series.period)) == {0: (1, 2, 1)}


def test_pipeline_standard_simplex():
    series = ehrhart_series(EventRegion.of(standard_simplex(5)))
    assert series.period == 1
    q = series.fit(range(series.period))
    assert q[0][-1] == F(1, 120)
    for n in (9, 14):
        assert at(q[0], n) == comb(n + 5, 5)


def test_pipeline_half_integral_segment():
    seg = EventRegion.of(HPolytope(1, [ge((1,)), le((2,), 1)]))  # [0, 1/2]
    series = ehrhart_series(seg)
    assert series.period == 2
    q = series.fit(range(series.period))
    assert at(q[0], 4) == 3 and at(q[1], 5) == 3
    assert {poly[-1] for poly in q.values()} == {F(1, 2)}


def test_pipeline_leading_coefficient_equals_volume():
    skew = HPolytope(
        2, [ge((1, 0)), ge((0, 1)), le((1, 2), 2), le((3, 1), 3)]
    )
    series = ehrhart_series(EventRegion.of(skew))
    q = series.fit(range(series.period))
    assert {poly[-1] for poly in q.values()} == {skew.volume()}


def test_pipeline_budget_guard_reports_requirements(monkeypatch):
    wide = HPolytope(
        4,
        [ge((3, 0, 0, 0)), le((3, 0, 0, 0), 1),
         ge((0, 5, 0, 0)), le((0, 5, 0, 0), 1),
         ge((0, 0, 7, 0)), le((0, 0, 7, 0), 1),
         ge((0, 0, 0, 11), 0), le((0, 0, 0, 11), 1)],
    )
    assert vertex_lcm(wide) == 3 * 5 * 7 * 11
    # a prime q among 3, 5, 7, 11 divides the denominators of a facet's
    # vertices alone, so Phi_q divides D 1 + 3 times, not Stanley's 5:
    # deg D = 5 + 4 (2 + 4 + 6 + 10) + 4 (8 + 12 + 20 + 24 + 40 + 60)
    #         + 2 (48 + 80 + 120 + 240) + 480: the window is -1102 ... 1104
    assert _degree(_series_denominator(((1, wide),))[0]) == 2205
    asked = _count_spy(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        ehrhart_series(EventRegion.of(wide), budget=589)
    # the window's largest |n| is counted first: x0 takes 369 values and
    # the first of them (the rest hit its memo) x1 221, the polygon of
    # (x2, x3) costing nothing
    assert asked == [1104]
    assert err.value.dilation == 1104
    assert err.value.nodes == 369 + 221
    assert not hasattr(err.value, "required_counts")


def test_pipeline_budget_guard_reports_the_largest_dilation_on_borda(monkeypatch):
    # deg D = 90: the window is -45 ... 46, whose n = 46 visits 8,423
    # nodes on the first term, more than a budget of 8,000, but fits the
    # default budget
    borda = manipulability_event(BORDA)
    asked = _count_spy(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        ehrhart_series(borda, budget=8000)
    assert asked == [46]
    assert err.value.dilation == 46
    assert "dilation 46 reached" in str(err.value)
    assert err.value.nodes > 8000
    count_lattice_points(borda.terms[0][1], 46, budget=DEFAULT_BUDGET)


def test_pipeline_refuses_a_window_past_the_budget_before_building_d(monkeypatch):
    # rule M's largest vertex denominator is 1,267,319,014,866,450,000, so
    # the window's first count is at n >= 633,659,507,433,225,001, where
    # x0 alone, of width 25000/40693 on the first term, takes more values
    # than the budget
    rule_m = manipulability_event(ScoringRule(F(9307, 25000)))
    _, built = _route_spies(monkeypatch)
    asked = _count_spy(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="dilation 633659507433225001 or more"):
        ehrhart_series(rule_m)
    assert time.perf_counter() - t0 < 1
    assert built == [] and asked == []
    # on [0, 1/7] x [0, 1/11] x [0, 1/13] the largest vertex denominator
    # is 1001, so n >= 502, where x0 takes floor(502 / 7) = 71 values or
    # more; deg D = 1312 puts the window's largest |n| at -656 + 1312 + 1
    # = 657, where x0 takes floor(657 / 7) + 1 = 94 values.  Moving x0
    # to [1, 8/7] changes neither.
    for shift in (0, 7):
        built.clear()
        asked.clear()
        with pytest.raises(BudgetExceededError,
                           match=r"dilation 502 or more reached 71 nodes or more \(budget 70\)"):
            ehrhart_series(EventRegion.of(_wide_box(shift)), budget=70)
        assert built == [] and asked == []
        with pytest.raises(BudgetExceededError, match="dilation 657 reached 94 nodes"):
            ehrhart_series(EventRegion.of(_wide_box(shift)), budget=71)
        assert built == [3] and asked == [657]


def test_pipeline_refuses_a_huge_window_in_dimension_two_or_less(monkeypatch):
    # no count of a segment or a polygon charges a node, so each window
    # value charges one: [0, 1/10^6] has at least 10^6 + 2 of them, past
    # a budget of 1000, and stops before D is built
    _, built = _route_spies(monkeypatch)
    asked = _count_spy(monkeypatch)
    for seg in (HPolytope(1, [ge((1,)), le((10**6,), 1)]),
                HPolytope(2, [ge((1, 0)), le((10**6, 0), 1), ge((0, 1)), le((0, 1), 0)])):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match=r"1000002 window values or more, a node each \(budget 1000\): "
                                 r"the window of denominator 1000000") as err:
            ehrhart_series(EventRegion.of(seg), budget=1000)
        assert time.perf_counter() - t0 < 1
        assert err.value.nodes == 10**6 + 2
    assert built == [] and asked == []
    # the triangle (0, 0), (1/997, 0), (0, 1/991) passes that check on its
    # largest denominator, 997 + 2 values, but deg D = 1 + 997 + 991 puts
    # 1,991 values in its window: D is built, and no count runs
    triangle = HPolytope(2, [ge((1, 0)), ge((0, 1)), le((997, 991), 1)])
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"^1991 window values or more, a node each \(budget 1000\): "
                             r"the window of degree 1989$") as err:
        ehrhart_series(EventRegion.of(triangle), budget=1000)
    assert time.perf_counter() - t0 < 1
    assert err.value.nodes == 1991
    assert built == [2] and asked == []
    # [0, 1/12000] needs 12,002 values or more, inside the default budget
    # (``test_pipeline_extends_a_wide_segment_by_the_factors_of_d``)
    seg = HPolytope(1, [ge((1,)), le((12000,), 1)])
    assert ehrhart_series(EventRegion.of(seg)).fit([0]) == {0: (1, F(1, 12000))}


def test_series_denominator_degrees_and_lattice_polytopes():
    # plurality: Phi_1^6 Phi_2^4 Phi_3^4 Phi_4^3, of degree 24, where
    # Stanley's count alone gives Phi_2^6 Phi_3^6 Phi_4^4 and 32: no face
    # of dimension above 3 has every vertex denominator even, nor one
    # above 2 every one divisible by 4.  Borda 118 -> 90, antiplurality
    # Phi_1^6 Phi_3^5: 18 -> 16
    for rule, degree in ((PLURALITY, 24), (BORDA, 90), (ANTIPLURALITY, 16)):
        region = manipulability_event(rule)
        assert all(not p.is_empty() for _, p in region.terms)
        assert _degree(_series_denominator(region.terms)[0]) == degree
    for dim in (1, 2, 3, 5):
        for poly in (unit_box(dim), standard_simplex(dim)):
            assert _series_denominator(((1, poly),))[0] == {1: dim + 1}


def test_series_denominator_is_a_multiple_of_the_plurality_series_denominator():
    region = manipulability_event(PLURALITY)
    exps, _ = _series_denominator(region.terms)
    deg = _degree(exps)
    series = gf_coefficients(MANIPULABLE_UNION_SERIES, deg + 60).entries
    # D * h / Q is a polynomial of degree < deg D when Q divides D
    product = _times_d([series[n] for n in range(deg + 61)], exps, 1)
    assert all(c == 0 for c in product[deg : deg + 61])


def test_pipeline_checks_the_window_against_the_recurrence(monkeypatch):
    # (1 - t)^6 annihilates polynomials of degree 5, not plurality's
    # period-12 quasipolynomial: a held-back count must disagree.  A
    # failed series is not memoized, so each call checks it again
    region = manipulability_event(PLURALITY)
    ehrhart._series.cache_clear()
    monkeypatch.setattr(ehrhart, "_series_denominator", lambda terms: ({1: 6}, 0))
    with pytest.raises(PeriodTooSmallError, match="series recurrence"):
        ehrhart_series(region)
    # a count past the window reads the same checked window
    with pytest.raises(PeriodTooSmallError, match="series recurrence"):
        region_count(region, 96)
    assert ehrhart._series.cache_info().currsize == 0


def test_pipeline_restricted_classes():
    series = ehrhart_series(EventRegion.of(HPolytope(1, [ge((1,)), le((2,), 1)])))
    q = series.fit([0])
    assert list(q) == [0]
    assert q[0] == (1, F(1, 2))
    assert q[0][-1] == F(1, 2)
    assert series.fit([]) == {}
    # classes are taken modulo the period, each once, in ascending order
    assert list(series.fit([5, -4, 1, 2])) == [0, 1]


def test_series_values_stop_at_the_window_start():
    # values(stop) is f over range(stop), empty when stop <= 0; the
    # series starts at n = 0, wherever the window that built it started
    series = ehrhart_series(manipulability_event(PLURALITY))
    for stop in (-3, 0, 2, 13):
        assert series.values(stop) == [series.value(n) for n in range(stop)]
    assert series.values(-3) == series.values(0) == []
    with pytest.raises(ValueError, match="starts at n=0"):
        series.value(-1)


def test_pipeline_extends_a_wide_segment_by_the_factors_of_d():
    # [0, 1/12000]: D = (1 - t)(1 - t^12000), so class 0 reads 18,001
    # values past a window of 12,003 counts
    seg = HPolytope(1, [ge((1,)), le((12000,), 1)])
    t0 = time.perf_counter()
    q = ehrhart_series(EventRegion.of(seg)).fit([0])
    assert time.perf_counter() - t0 < 1
    assert q == {0: (1, F(1, 12000))}


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
    region = EventRegion.of(poly)
    series = ehrhart_series(region)
    assert series.fit(range(series.period)) == positive_dilation_fit(region)


@settings(max_examples=25)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(small_polytopes(d), small_polytopes(d))))
def test_pipeline_equals_positive_dilation_fit_on_regions(pair):
    p, r = pair
    region = EventRegion(((1, p), (1, r), (-1, p.intersect(r))))
    series = ehrhart_series(region)
    assert series.fit(range(series.period)) == positive_dilation_fit(region)


def test_pipeline_fits_every_plurality_class_to_the_series():
    series = ehrhart_series(manipulability_event(PLURALITY))
    assert series.period == 12
    q = series.fit(range(12))
    expected = gf_coefficients(MANIPULABLE_UNION_SERIES, 12 * 10).entries
    assert all(at(q[n % 12], n) == c for n, c in expected.items())


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

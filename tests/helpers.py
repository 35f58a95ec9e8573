"""Shared test fixtures and oracles that production code does not use:
rational generating functions and the known series of the plurality
manipulation regions, pointwise membership, a polytope's vertices as
``Fraction`` tuples and their bounding box, brute-force lattice
counters of dilations and of their relative interiors kept independent
of the production counting path, region counts by enumeration alone, a
table of counts by dilation and a
quasipolynomial fit on positive dilations alone, interpolated by
Lagrange's formula over ``Fraction``, equality elimination
done in ``Fraction`` arithmetic as a reference for the share-space
compiler, the rule weights the event tests sweep, the regions a spec
builds, the Irwin-Hall
closed form of the referendum paradox, and resets of the event
layer's and the geometry kernel's memos."""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as F

from polyvote.ehrhart import (
    VALIDATION_POINTS,
    PeriodTooSmallError,
    count_lattice_points,
)
from polyvote.linalg import DimensionError
from polyvote.polytope import HPolytope, _vertices
import polyvote.ehrhart as ehrhart
import polyvote.polytope as polytope
import polyvote.socialchoice as sc

# -- count tables and their fit -----------------------------------------------


@dataclass(frozen=True)
class CountTable:
    """Map from dilation n to the lattice count of nP."""

    entries: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for n, c in self.entries.items():
            n, c = int(n), int(c)
            if n < 0 or c < 0:
                raise ValueError("dilations and counts must be non-negative")
            clean[n] = c
        object.__setattr__(self, "entries", clean)

    def residue_class(self, r, period):
        return sorted((n, c) for n, c in self.entries.items() if n % period == r)


def lagrange_fit(points):
    """Ascending coefficients of the polynomial through the (x, y)
    points: the sum of y_i times the Lagrange basis polynomial of x_i,
    multiplied out over ``Fraction``."""
    coeffs = [F(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [F(1)], F(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = poly_mul(basis, [F(-xj), F(1)])
                scale /= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    return tuple(coeffs)


def interpolate_quasipolynomial(counts, period, degree, classes=None):
    """{r: ascending coefficients} of a degree-``degree`` polynomial
    fitted on each residue class r modulo ``period`` (every class when
    ``classes`` is None), in ascending r; any supplied count beyond the
    d+1 used for fitting must agree with the fit or the period/degree is
    rejected."""
    wanted = range(period) if classes is None else sorted(set(c % period for c in classes))
    polys = {}
    for r in wanted:
        points = counts.residue_class(r, period)
        if len(points) < degree + 1:
            raise ValueError(f"class {r} mod {period} has {len(points)} counts, "
                             f"needs {degree + 1}")
        polys[r] = lagrange_fit(points[: degree + 1])
        for n, c in points[degree + 1 :]:
            if at(polys[r], n) != c:
                raise PeriodTooSmallError(f"count at n={n} deviates from the class-{r} fit")
    return polys


def at(coeffs, n):
    """The polynomial of ascending ``coeffs`` at n: one fitted class of
    a quasipolynomial, evaluated on that class's n."""
    return sum(c * n**k for k, c in enumerate(coeffs))


# -- rational generating functions --------------------------------------------


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_pow(p, k):
    out = [F(1)]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def expand_factors(factors):
    """Multiply out ``[(coeff_list, power), ...]`` (ascending coefficients)."""
    out = [F(1)]
    for coeffs, power in factors:
        out = poly_mul(out, poly_pow([F(c) for c in coeffs], power))
    return out


@dataclass(frozen=True)
class RationalGF:
    """F(t) = P(t)/Q(t) by ascending coefficient lists, scaled so Q(0) = 1."""

    numerator: tuple
    denominator: tuple

    def __init__(self, numerator, denominator):
        num = [F(c) for c in numerator]
        den = [F(c) for c in denominator]
        if not den or den[0] == 0:
            raise ValueError("denominator must have a nonzero constant term")
        c0 = den[0]
        object.__setattr__(self, "numerator", tuple(c / c0 for c in num))
        object.__setattr__(self, "denominator", tuple(c / c0 for c in den))


def gf_series(gf, upto):
    """Maclaurin coefficients a_0..a_upto of P(t)/Q(t), of any sign, by
    the forward linear recurrence a_n = b_n - sum_{k>=1} c_k a_{n-k}."""
    num, den = gf.numerator, gf.denominator
    coeffs = []
    for n in range(upto + 1):
        b = num[n] if n < len(num) else F(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            b -= den[k] * coeffs[n - k]
        coeffs.append(b)
    for n, a in enumerate(coeffs):
        if a.denominator != 1:
            raise ValueError(f"coefficient a_{n} = {a} is not an integer")
    return [int(a) for a in coeffs]


def gf_coefficients(gf, upto):
    """``gf_series`` as a CountTable of counts."""
    return CountTable(dict(enumerate(gf_series(gf, upto))))


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


# -- the referendum paradox in closed form -------------------------------------


def irwin_hall_cdf(n, t):
    """P(u_1 + ... + u_n <= t) for n independent uniforms on [0, 1]."""
    return F(sum((-1) ** j * math.comb(n, j) * (t - j) ** n
                 for j in range(math.floor(t) + 1)), math.factorial(n))


def referendum_irwin_hall(districts):
    """2 * sum_k C(N, k) * IH_N(N - k) / 2^N over the majorities k < N:
    k won districts hold x_i = (1 + u_i) / 2, the others u_i / 2, u in
    the unit cube, and sum(x) <= N/2 is sum(u) <= N - k."""
    return 2 * sum(
        math.comb(districts, k) * irwin_hall_cdf(districts, districts - k)
        for k in range(districts // 2 + 1, districts)
    ) / 2**districts


# -- membership and lattice counting ------------------------------------------


def dilation_contains(halfspaces, point, n):
    """Whether the point lies in nP, for P given by integer rows
    (a, REL, b) such as ``integer_rows()``: ``a.point REL b*n``."""
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


def contains(poly, point):
    """Whether the rational point lies in ``poly``, tested on its
    integer rows."""
    if len(point) != poly.dim:
        raise DimensionError("point dimension mismatch")
    return dilation_contains(poly.integer_rows(), [F(x) for x in point], 1)


def vertices(poly):
    """The vertices of ``poly`` as ``Fraction`` tuples, in the sorted
    order of ``_vertices``; empty when ``poly`` is."""
    return tuple(tuple(F(p, den) for p in nums) for nums, den in _vertices(poly))


def bounding_box(poly):
    """Componentwise (min, max) over the vertices of a nonempty ``poly``."""
    coords = list(zip(*vertices(poly)))
    return tuple(map(min, coords)), tuple(map(max, coords))


def brute_count(poly, n):
    """Count lattice points of the n-fold dilation by scanning the whole
    integer bounding box and testing membership pointwise."""
    if poly.is_empty():
        return 0
    if n == 0:
        return 1
    lo, hi = bounding_box(poly)
    axes = [
        range(math.ceil(n * a), math.floor(n * b) + 1) for a, b in zip(lo, hi)
    ]
    halfspaces = poly.integer_rows()
    return sum(dilation_contains(halfspaces, point, n) for point in itertools.product(*axes))


def vertex_box_count(poly, n, vertices):
    """Count lattice points of the n-fold dilation by scanning the
    integer box of n * ``vertices`` (P's vertices, from the caller's
    oracle) and testing membership pointwise."""
    halfspaces = poly.integer_rows()
    axes = [range(math.ceil(n * min(c)), math.floor(n * max(c)) + 1) for c in zip(*vertices)]
    return sum(dilation_contains(halfspaces, point, n) for point in itertools.product(*axes))


def relint_count(poly, k, vertices):
    """Count lattice points of the relative interior of the k-fold
    dilation by scanning the integer box of k * ``vertices`` (P's
    vertices, from the caller's oracle): a point counts when it lies in
    kP and is off every row some vertex is off (a.v != b), which makes
    those rows strict."""
    halfspaces = poly.integer_rows()
    strict = [
        (coeffs, rhs) for coeffs, _, rhs in halfspaces
        if any(sum(a * x for a, x in zip(coeffs, v)) != rhs for v in vertices)
    ]
    axes = [range(math.ceil(k * min(c)), math.floor(k * max(c)) + 1) for c in zip(*vertices)]
    return sum(
        dilation_contains(halfspaces, point, k)
        and all(sum(a * x for a, x in zip(coeffs, point)) != rhs * k for coeffs, rhs in strict)
        for point in itertools.product(*axes)
    )


def enumerated_count(region, n):
    """The signed sum of ``count_lattice_points`` over the region's
    terms: a count of nP by enumeration alone, which ``region_count``
    may instead read off the Ehrhart series."""
    return sum(s * count_lattice_points(p, n) for s, p in region.terms)


def positive_dilation_fit(region, classes=None):
    """The region's counting quasipolynomial fitted on counts at n = r +
    m*j, j = 0 ... dim + 2 (m the period bound), with no value at a
    negative dilation: a ``CountTable`` handed to
    ``interpolate_quasipolynomial``."""
    m = vertex_lcm(*(p for _, p in region.terms))
    wanted = range(m) if classes is None else {c % m for c in classes}
    dilations = [r + m * j for r in wanted for j in range(region.dim + 1 + VALIDATION_POINTS)]
    table = CountTable({n: enumerated_count(region, n) for n in dilations})
    return interpolate_quasipolynomial(table, m, region.dim, classes=wanted)


def vertex_lcm(*polys):
    """The lcm of the polytopes' vertex denominators, the period their
    series has, read without building the series."""
    return math.lcm(*(den for p in polys for _, den in _vertices(p)))


def eliminate_over_fractions(poly, j):
    """Substitute coordinate ``j`` of ``poly`` out of its other rows by
    the first equality row with a nonzero coefficient there, in
    ``Fraction`` arithmetic on the (coeffs, rel, rhs) triples, and
    canonicalize the result by ``HPolytope``."""
    rows = poly.integer_rows()
    row = next(r for r in rows if r[1] == "=" and r[0][j] != 0)
    a, _, b = row
    keep = [i for i in range(poly.dim) if i != j]
    return HPolytope(poly.dim - 1, [
        (tuple(c[i] - F(c[j] * a[i], a[j]) for i in keep), rel, rhs - F(c[j] * b, a[j]))
        for c, rel, rhs in rows if (c, rel, rhs) != row
    ])


# rule weights lam of (1, lam, 0) at which the event tests check every rule
LAMBDAS = (F(0), F(1, 3), F(2, 5), F(1, 2), F(37228, 100000), F(1))


def spec_regions(spec):
    """The label, event region and given region (or None) that the
    registry form of ``spec`` builds from its parsed arguments."""
    _, form, values = sc._parse_spec(spec)
    return form.build(*values)


# -- the event layer's memos --------------------------------------------------


def clear_event_memos():
    """Empty every memo of ``polyvote.socialchoice``: the evaluated
    specs and the compiled conjunctions of atoms."""
    for fn in event_memos():
        fn.cache_clear()


def event_memos():
    """The memoized functions defined in ``polyvote.socialchoice``."""
    return [fn for fn in vars(sc).values()
            if hasattr(fn, "cache_clear") and fn.__module__ == sc.__name__]


# -- the geometry kernel's memos ----------------------------------------------


def clear_geometry_memos():
    """Empty every process-wide memo of the geometry kernel: vertices
    and volumes per polytope, the double-description seeds and cuts,
    the counting plans, the series denominators and the Ehrhart series
    per region.  Their hit and miss counts start again from zero."""
    for fn in geometry_memos():
        fn.cache_clear()


def geometry_memos():
    """The memoized functions defined in ``polyvote.polytope`` and
    ``polyvote.ehrhart``."""
    return [fn for mod in (polytope, ehrhart) for fn in vars(mod).values()
            if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__]

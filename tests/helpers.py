"""Shared test fixtures and oracles that production code does not use:
rational generating functions and the known series of the plurality
manipulation regions, integer and ``Fraction`` determinants and rank
on the Bareiss kernel, pointwise membership, the bounding box of a
polytope's vertices, brute-force lattice counters of dilations and of
their relative interiors kept independent of the production counting
path, a table of counts by dilation and a quasipolynomial fit on
positive dilations alone, and equality elimination done in
``Fraction`` arithmetic as a reference for the integer one, and the
Irwin-Hall closed form of the referendum paradox."""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as F

from polyvote.ehrhart import VALIDATION_POINTS, _fit_classes, period_bound, region_count
from polyvote.linalg import DimensionError, bareiss
from polyvote.polytope import EventRegion, HalfSpace, HPolytope, _vertices

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


def interpolate_quasipolynomial(counts, period, degree, classes=None):
    """Fit a degree-``degree`` polynomial on each residue class modulo
    ``period``; any supplied count beyond the d+1 used for fitting must
    agree with the fit or the period/degree is rejected."""
    wanted = range(period) if classes is None else sorted(set(c % period for c in classes))
    return _fit_classes({r: counts.residue_class(r, period) for r in wanted}, period, degree)


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


def gf_coefficients(gf, upto):
    """Maclaurin coefficients a_0..a_upto of P(t)/Q(t) by the forward
    linear recurrence a_n = b_n - sum_{k>=1} c_k a_{n-k}."""
    num, den = gf.numerator, gf.denominator
    coeffs = []
    for n in range(upto + 1):
        b = num[n] if n < len(num) else F(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            b -= den[k] * coeffs[n - k]
        coeffs.append(b)
    table = {}
    for n, a in enumerate(coeffs):
        if a.denominator != 1:
            raise ValueError(f"coefficient a_{n} = {a} is not an integer")
        table[n] = int(a)
    return CountTable(table)


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


# -- Fraction fronts for the Bareiss kernel -----------------------------------


def _integer_rows(rows):
    """Scale each row to integers by the lcm of its denominators.

    Returns the rows and the product of the scale factors (det of the
    scaled matrix = scale * det of the original)."""
    out = []
    scale = 1
    for row in rows:
        row = [F(x) for x in row]
        m = math.lcm(*(x.denominator for x in row)) if row else 1
        scale *= m
        out.append([x.numerator * (m // x.denominator) for x in row])
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("matrix rows must all have equal length")
    return out, scale


def integer_determinant(m):
    """Determinant of a square integer matrix; ``m`` is overwritten.

    For a full-rank square matrix the last Bareiss pivot is the
    determinant."""
    n = len(m)
    if n == 0:
        return 1
    return m[-1][-1] if bareiss(m) == n else 0


def determinant(a):
    """Exact determinant by fraction-free Bareiss elimination."""
    m, scale = _integer_rows(a)
    if any(len(r) != len(m) for r in m):
        raise DimensionError("determinant requires a square matrix")
    return F(integer_determinant(m), scale)


def rank(a):
    """Exact rank over the rationals (fraction-free echelon)."""
    m, _ = _integer_rows(a)
    if not m or not m[0]:
        return 0
    return bareiss(m)


# -- membership and lattice counting ------------------------------------------


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


def contains(poly, point):
    """Whether the rational point lies in ``poly``, tested on its
    constraints cleared to integers."""
    if len(point) != poly.dim:
        raise DimensionError("point dimension mismatch")
    return dilation_contains(integer_halfspaces(poly), [F(x) for x in point], 1)


def bounding_box(poly):
    """Componentwise (min, max) over the vertices of a nonempty ``poly``."""
    coords = list(zip(*(tuple(F(p, den) for p in nums) for nums, den in _vertices(poly))))
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
    halfspaces = integer_halfspaces(poly)
    return sum(dilation_contains(halfspaces, point, n) for point in itertools.product(*axes))


def vertex_box_count(poly, n, vertices):
    """Count lattice points of the n-fold dilation by scanning the
    integer box of n * ``vertices`` (P's vertices, from the caller's
    oracle) and testing membership pointwise."""
    halfspaces = integer_halfspaces(poly)
    axes = [range(math.ceil(n * min(c)), math.floor(n * max(c)) + 1) for c in zip(*vertices)]
    return sum(dilation_contains(halfspaces, point, n) for point in itertools.product(*axes))


def relint_count(poly, k, vertices):
    """Count lattice points of the relative interior of the k-fold
    dilation by scanning the integer box of k * ``vertices`` (P's
    vertices, from the caller's oracle): a point counts when it lies in
    kP and is off every row some vertex is off (a.v != b), which makes
    those rows strict."""
    halfspaces = integer_halfspaces(poly)
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


def positive_dilation_fit(target, classes=None):
    """The counting quasipolynomial fitted on counts at n = r + m*j,
    j = 0 ... dim + 2 (m the period bound), with no value at a negative
    dilation: a ``CountTable`` handed to ``interpolate_quasipolynomial``."""
    region = target if isinstance(target, EventRegion) else EventRegion.of(target)
    m = period_bound(target)
    wanted = range(m) if classes is None else {c % m for c in classes}
    dilations = [r + m * j for r in wanted for j in range(region.dim + 1 + VALIDATION_POINTS)]
    table = CountTable({n: region_count(region, n) for n in dilations})
    return interpolate_quasipolynomial(table, m, region.dim, classes=wanted)


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

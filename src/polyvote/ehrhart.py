"""Lattice-point counting in dilations and Ehrhart quasipolynomials.

Counting enumerates integer points of the dilation nP one coordinate
at a time down to the next-to-last coordinate x.  Each coordinate x_l
is bounded by the exact shadow of P on x[:l+1] alone: one
Fourier-Motzkin projection per polytope (Chernikov's rule keeps it
small) gives each shadow row as nonnegative multipliers on the rows
of P, so its bound is that combination of the prefix's residuals,
for any right-hand sides.  An enumerated prefix therefore always has
a real point of nP above it, and only integer rounding can leave its
subtree empty.  At x the last coordinate y ranges
over a polygon: each row with a nonzero coefficient on y bounds it by
the floor or ceiling of a line in x, the least upper and the greatest
lower line change only where lines cross, and on each piece between
crossings the count of y is a sum of floor((a.i + b) / m), which
Euclid's algorithm closes in O(log m) (the AtCoder Library's
``floor_sum``).  A one-dimensional P is closed as an interval.  The
subtree below a level reads only the residuals of its
active rows (those with a nonzero coefficient on a coordinate at or
after it), so a count is memoized on them at the levels where two
prefixes can reach the same residuals: where the rank of the active
rows on the prefix grew by less than the coordinates fixed since the
last memoized level.  Share-space rows that see coordinates only
through their sums (plurality's x0 + x1) make such levels; rows that
separate every prefix make none, and the recursion runs unmemoized.
A count is budgeted on the nodes it visits: each enumerated range of
x_l charges its length, so a memo hit costs one node and the closures
none.
The Ehrhart series sum f(n) t^n of a region is h(t)/D(t) with deg h <
deg D, where the cyclotomic Phi_k divides D at most min(dim + 1,
#{vertices v of a term : k divides den v}) times (Stanley, EC I, 4.6).
So the deg D values of one window fix every residue class: spare
values check the recurrence D gives, which then extends them to the
dilations each class is fitted on.  By Ehrhart-Macdonald reciprocity
the value at n = -k is (-1)^dim(P) times the lattice count of the
relative interior of kP, whose rows not tight on all of P are strict:
a.x <= b.k - 1.  So the window is about n = -deg D / 2 ... deg D / 2,
whatever the period.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import itemgetter

from . import polytope
from .polytope import EQ, EventRegion, GeometryError, HPolytope

DEFAULT_BUDGET = 10**6
# window counts past deg D that check the series recurrence without entering it
VALIDATION_POINTS = 2


class BudgetExceededError(Exception):
    """A count visited more nodes than its budget allows."""

    def __init__(self, message, nodes=None, dilation=None):
        super().__init__(message)
        self.nodes = nodes
        self.dilation = dilation


class PeriodTooSmallError(ValueError):
    """Held-back counts disagreed with the series recurrence."""


# ---------------------------------------------------------------------------
# counting


def _le_rows(poly: HPolytope):
    """The rows of a nonempty P as (coeffs, rhs, strict) with coeffs.x <=
    rhs, an equality giving two.  ``strict`` is 1 on an inequality row
    not tight on all of P, which the relative interior holds strictly,
    and 0 on the others."""
    kept = set(polytope._implicit_equalities(poly))
    rows = []
    for row in poly.integer_rows():
        coeffs, rel, rhs = row
        if rel == EQ:
            rows += [(coeffs, rhs, 0), (tuple(-a for a in coeffs), -rhs, 0)]
        else:
            rows.append((coeffs, rhs, int(row not in kept)))
    return rows


def _memo_keys(rows, dim: int) -> dict[int, list[int]]:
    """The levels whose subtrees are memoized, each mapped to the rows
    whose residuals key it: its active rows, those with a nonzero
    coefficient on some coordinate >= level, the only rows a subtree
    there reads.

    The key is an affine image of the prefix x[:level], of rank r.
    Level 0 is never memoized, nor level dim - 1, which the polygon
    closure of level dim - 2 sums without entering.  A level is taken
    only when its key can repeat: when r
    grew by less than the number of coordinates fixed since the last
    memoized level m (m = 0, r = 0 before any)."""
    keys = {}
    last, last_rank = 0, 0
    for level in range(1, dim - 1):
        active = [j for j, (coeffs, _, _) in enumerate(rows) if any(coeffs[level:])]
        r = polytope._rank([rows[j][0][:level] for j in active])
        if r - last_rank < level - last:
            keys[level] = active
            last, last_rank = level, r
    return keys


def count_lattice_points(poly: HPolytope, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of integer points x with x/n in P (points of the dilation
    nP); BudgetExceededError once the count visits more than ``budget``
    nodes (see ``_count``)."""
    if n < 0:
        raise ValueError("dilation must be non-negative")
    if poly.is_empty():
        return 0
    return _count(poly, n, [b * n for _, b, _ in _count_plan(poly)[0]], budget)


def _quasipolynomial_value(poly: HPolytope, n: int, budget: int) -> int:
    """The counting quasipolynomial of a nonempty P at n: the count of
    nP for n >= 0, and at n = -k (-1)^dim(P) times the lattice points of
    the relative interior of kP, where the implicit equalities stay and
    every other inequality row becomes a.x <= b.k - 1."""
    if n >= 0:
        return count_lattice_points(poly, n, budget)
    k = -n
    plan = _count_plan(poly)
    rhs = [b * k - strict for _, b, strict in plan[0]]
    return (-1) ** (poly.dim - plan[-1]) * _count(poly, k, rhs, budget)


def _shadows(rows, dim: int):
    """Per level l, the rows of the projection of {x : a.x <= r} onto
    x[:l+1] that have a nonzero coefficient on x_l, as two tuples:
    those bounding x_l from above and those bounding it from below.
    Each row is (|c|, ((j, lam_j), ...)), with c its coefficient on
    x_l and lam_j >= 0 the sparse multipliers over ``rows`` of the
    combination, which has coefficient c on x_l and 0 on every later
    coordinate.  So with res[j] = r_j - a_j[:l].x[:l] the row reads
    c.x_l <= sum(lam_j * res[j]), whatever the right-hand sides r.

    Fourier-Motzkin eliminates x_{dim-1} down to x_1, divides each row
    by the gcd of its coefficients and multipliers together, and drops
    all-zero rows, repeated rows and, by Chernikov's rule, every
    combination of more than k + 1 rows after k eliminations, which
    the others imply."""
    system = {(coeffs, ((j, 1),)) for j, (coeffs, _, _) in enumerate(rows) if any(coeffs)}
    levels = [None] * dim
    for level in range(dim - 1, -1, -1):
        pos = sorted((c, lam) for c, lam in system if c[level] > 0)
        neg = sorted((c, lam) for c, lam in system if c[level] < 0)
        levels[level] = (tuple((c[level], lam) for c, lam in pos),
                         tuple((-c[level], lam) for c, lam in neg))
        if level == 0:
            break
        support_cap = dim - level + 1  # k + 1 after k = dim - level eliminations
        system = {(c[:level], lam) for c, lam in system if not c[level] and any(c[:level])}
        for cp, lp in pos:
            for cn, ln in neg:
                u, v = -cn[level], cp[level]
                multipliers = dict.fromkeys((j for j, _ in lp + ln), 0)
                if len(multipliers) > support_cap:
                    continue
                coeffs = [u * a + v * b for a, b in zip(cp[:level], cn[:level])]
                if not any(coeffs):
                    continue
                for j, m in lp:
                    multipliers[j] += u * m
                for j, m in ln:
                    multipliers[j] += v * m
                g = math.gcd(*coeffs, *multipliers.values())
                system.add((tuple(a // g for a in coeffs),
                            tuple(sorted((j, m // g) for j, m in multipliers.items()))))
    return tuple(levels)


@functools.lru_cache(maxsize=4096)
def _count_plan(poly: HPolytope):
    """What a count of P reads that does not depend on the dilation:
    the rows of ``_le_rows``, per level the (row, coefficient) pairs
    with a nonzero coefficient there, the ``_shadows`` bounds of each
    level, the memoized levels of ``_memo_keys``, each with the getter
    of its key, and, for dim >= 2, the rows that bound the last
    coordinate y from above and from below as (row, coefficient on the
    next-to-last coordinate x, |c|) for a row a.x + c.y <= r with c > 0
    and c < 0, and the codimension of P, the rank of its implicit
    equalities."""
    rows = tuple(_le_rows(poly))
    deltas = tuple(
        tuple((j, coeffs[level]) for j, (coeffs, _, _) in enumerate(rows) if coeffs[level])
        for level in range(poly.dim)
    )
    memo_keys = {level: itemgetter(*key) for level, key in _memo_keys(rows, poly.dim).items()}
    upper, lower = [], []
    if poly.dim >= 2:
        for j, (coeffs, _, _) in enumerate(rows):
            a, c = coeffs[-2], coeffs[-1]
            if c:
                (upper if c > 0 else lower).append((j, a, abs(c)))
    codim = polytope._rank([coeffs for coeffs, _, _ in polytope._implicit_equalities(poly)])
    return (rows, deltas, _shadows(rows, poly.dim), memo_keys, tuple(upper), tuple(lower),
            codim)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*i + b) / m) for i in range(n)), for n >= 0 and
    m >= 1, in O(log m) steps: Euclid's algorithm on (m, a) as in the
    AtCoder Library's ``floor_sum``, the floor divisions taking negative
    a and b to [0, m) first."""
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        # the terms are now floor((a*i + b) / m) with 0 <= a, b < m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _binding(bounds, res: list[int], x: int, end: int):
    """Of the bounds (j, a, c) on y, each c.y <= res[j] - a.x, the one
    least at x (ties to the least slope -a/c, so it is least just after
    x too), and the last integer <= end up to which it stays least."""
    jb = None
    for j, a, c in bounds:
        v = res[j] - a * x
        if jb is None or v * cb < vb * c or (v * cb == vb * c and a * cb > ab * c):
            jb, ab, cb, vb = j, a, c, v
    for j, a, c in bounds:
        # a bound of lesser slope overtakes it past x + (cb.v - c.vb) / dd
        dd = a * cb - ab * c
        if dd > 0:
            t = x + (cb * (res[j] - a * x) - c * vb) // dd
            if t < end:
                end = t
    return ab, cb, res[jb], end


def _polygon_count(upper, lower, res: list[int], xlo: int, xhi: int) -> int:
    """Lattice points (x, y) with xlo <= x <= xhi, c.y <= res[j] - a.x
    on each (j, a, c) of ``upper`` and -c.y <= res[j] - a.x on each of
    ``lower`` (c > 0; both nonempty, as the rows of a bounded P must be).

    The walk splits [xlo, xhi] where the binding upper bound U or
    lower bound L on y changes row, clips each piece to where U >= L
    over the reals, and sums floor(U) - ceil(L) + 1 there by two floor
    sums.  That set of x is an interval, U - L being concave, so the
    walk stops at the first piece that leaves it to the right."""
    total = 0
    x = xlo
    uend = lend = x - 1
    while x <= xhi:
        if uend < x:
            au, cu, ru, uend = _binding(upper, res, x, xhi)
        if lend < x:
            al, cl, rl, lend = _binding(lower, res, x, xhi)
        end = min(uend, lend)
        # U(t) >= L(t) over the reals on this piece: e.t <= f
        e = cl * au + cu * al
        f = cl * ru + cu * rl
        first, last = x, end
        if e > 0:
            last = min(end, f // e)
        elif e < 0:
            first = max(x, -(f // -e))
        elif f < 0:
            last = x - 1
        if first <= last:
            k = last - first + 1
            total += (k + _floor_sum(k, cu, -au, ru - au * first)
                      + _floor_sum(k, cl, -al, rl - al * first))
        if last < end and e > 0:
            break
        x = end + 1
    return total


def _count(poly: HPolytope, n: int, rhs: list[int], budget: int) -> int:
    """Integer points x of a nonempty P's dilation with a.x <= rhs[j]
    on the j-th row (a, b, s) of ``_le_rows``: b.n for nP itself,
    b.n - s for its relative interior.

    Coordinates before the last two are enumerated between their
    ``_shadows`` bounds, which a bounded P has on both sides at every
    level; the last two are closed by ``_polygon_count`` (a
    1-dimensional P by its interval).  Each enumeration of x_l over
    [xlo, xhi] first charges xhi - xlo + 1 nodes, and a charge past
    ``budget`` raises BudgetExceededError."""
    _, deltas, shadows, memo_keys, upper, lower, _ = _count_plan(poly)
    closed = poly.dim - 2
    nodes = 0

    def rec(level: int, res: list[int]) -> int:
        nonlocal nodes
        above, below = shadows[level]
        xhi = xlo = None
        for c, lam in above:
            t = 0
            for j, m in lam:
                t += m * res[j]
            q = t // c
            if xhi is None or q < xhi:
                xhi = q
        for c, lam in below:
            t = 0
            for j, m in lam:
                t += m * res[j]
            q = -(t // c)
            if xlo is None or q > xlo:
                xlo = q
        if xlo > xhi:
            return 0
        if level == closed:
            return _polygon_count(upper, lower, res, xlo, xhi)
        if level > closed:  # P is one-dimensional
            return xhi - xlo + 1
        nodes += xhi - xlo + 1
        if nodes > budget:
            raise BudgetExceededError(
                f"dilation {n} reached {nodes} nodes (budget {budget})",
                nodes=nodes,
                dilation=n,
            )
        sub = res[:]
        dl = deltas[level]
        descend = enter[level + 1]
        for j, a in dl:
            sub[j] -= a * xlo
        total = 0
        x = xlo
        while True:
            total += descend(level + 1, sub)
            if x == xhi:
                break
            x += 1
            for j, a in dl:
                sub[j] -= a
        return total

    memos = {level: ({}, key_of) for level, key_of in memo_keys.items()}

    def memoized(level: int, res: list[int]) -> int:
        memo, key_of = memos[level]
        key = key_of(res)
        total = memo.get(key)
        if total is None:
            total = memo[key] = rec(level, res)
        return total

    enter = [memoized if level in memos else rec for level in range(poly.dim)]
    return enter[0](0, rhs)


def region_count(region: EventRegion, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Signed inclusion-exclusion count over the region's terms.  A
    negative total means the terms describe no set of points, which
    raises GeometryError, as a negative volume does."""
    total = sum(s * count_lattice_points(p, n, budget) for s, p in region.terms)
    if total < 0:
        raise GeometryError(f"signed region count at dilation {n} came out negative")
    return total


# ---------------------------------------------------------------------------
# quasipolynomials


class Quasipolynomial(namedtuple("Quasipolynomial", "period degree polys")):
    """One degree-d polynomial per residue class modulo the period.

    ``polys[r]`` holds ascending coefficients for n == r (mod period);
    classes not fitted (a restricted pipeline run) hold None.
    """

    __slots__ = ()

    def __new__(cls, period: int, degree: int, polys):
        if period < 1 or len(polys) != period:
            raise ValueError("need one (possibly None) polynomial per residue class")
        return super().__new__(cls, period, degree, polys)

    def class_coefficients(self, r: int) -> tuple[Fraction, ...]:
        poly = self.polys[r % self.period]
        if poly is None:
            raise ValueError(f"residue class {r} was not fitted")
        return poly

    def evaluate(self, n: int) -> Fraction:
        """For a counting quasipolynomial and n = -k < 0, (-1)^dim(P)
        times the lattice points of the relative interior of kP."""
        return _horner(self.class_coefficients(n % self.period), n)

    def leading_coefficient(self) -> Fraction:
        leads = {p[self.degree] for p in self.polys if p is not None}
        if not leads:
            raise ValueError("no fitted residue classes")
        if len(leads) != 1:
            raise ValueError(f"leading coefficients differ between classes: {leads}")
        return leads.pop()


def _horner(poly, n: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def _newton_fit(points: list[tuple[int, Fraction]]) -> list[Fraction]:
    """Exact interpolating polynomial through the points, ascending coeffs."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    poly = [divided[-1]]
    for k in range(len(points) - 2, -1, -1):
        # poly = poly*(x - xs[k]) + divided[k]
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= poly[i + 1] * xs[k]
        poly[0] += divided[k]
    return poly


# ---------------------------------------------------------------------------
# pipeline


def _target_parts(target) -> tuple[int, list[tuple[int, HPolytope]]]:
    if isinstance(target, HPolytope):
        return target.dim, [(1, target)]
    if isinstance(target, EventRegion):
        return target.dim, list(target.terms)
    raise TypeError("target must be an HPolytope or EventRegion")


def period_bound(target) -> int:
    """LCM of vertex-coordinate denominators across the target's terms
    (empty terms contribute nothing; an entirely empty target has period 1).
    Each vertex is a (numerators, denominator) pair reduced by its gcd,
    so its denominator is the lcm of its coordinates' denominators."""
    _, terms = _target_parts(target)
    return lcm(*(den for _, p in terms for _, den in polytope._vertices(p)))


def _series_denominator(dim: int, terms) -> list[int]:
    """Ascending coefficients of D = prod_k Phi_k^c_k, c_k the largest
    over the nonempty ``terms`` of min(dim + 1, #{v : k divides den v}),
    built as prod_j (1 - t^j)^e_j, where e_j is c_j less the e of j's
    proper multiples: the factors with e_j > 0 multiplied in first, the
    others divided out (so D(0) = 1 and every step stays in ints)."""
    mult = {}
    for _, p in terms:
        dens = [den for _, den in polytope._vertices(p)]
        for k in range(1, max(dens) + 1):
            c = min(dim + 1, sum(den % k == 0 for den in dens))
            mult[k] = max(mult.get(k, 0), c)
    exps = {}
    for k in sorted(mult, reverse=True):
        exps[k] = mult[k] - sum(e for j, e in exps.items() if j % k == 0)
    d = [1]
    for j, e in sorted(exps.items(), key=lambda je: -je[1]):
        for _ in range(e):  # times 1 - t^j
            d += [0] * j
            for i in range(len(d) - 1, j - 1, -1):
                d[i] -= d[i - j]
        for _ in range(-e):  # over 1 - t^j
            for i in range(j, len(d)):
                d[i] += d[i - j]
            del d[-j:]
    return d


def ehrhart_pipeline(
    target,
    classes=None,
    budget: int = DEFAULT_BUDGET,
) -> Quasipolynomial:
    """Evaluate the counting quasipolynomial on one window of dilations
    and interpolate it.

    The period used is the vertex-denominator lcm m (the minimal period
    always divides it).  With D = ``_series_denominator``, the values at
    n = -floor(deg D / 2) ... and ``VALIDATION_POINTS`` more are counted,
    largest |n| first, so the count likeliest to pass ``budget`` nodes
    runs before the others.  The value at n >= 0 is the signed count of
    nP over the terms, which must not be negative (GeometryError), and
    at n = -k the signed sum of their reciprocity values (see
    ``_quasipolynomial_value``).  The held-back values must satisfy
    sum_i d_i f(n - i) = 0, or PeriodTooSmallError; the recurrence then
    extends the values, and each requested residue class r is
    interpolated through n = r, r + m, ..., r + dim * m.
    """
    dim, terms = _target_parts(target)
    terms = [(s, p) for s, p in terms if not p.is_empty()]
    m = period_bound(target)
    wanted = list(range(m)) if classes is None else sorted(set(c % m for c in classes))
    d = _series_denominator(dim, terms)
    deg = len(d) - 1
    start = -(deg // 2)
    window = range(start, start + deg + VALIDATION_POINTS)
    counted = {}
    for n in sorted(window, key=abs, reverse=True):
        counted[n] = sum(s * _quasipolynomial_value(p, n, budget) for s, p in terms)
        if counted[n] < 0 <= n:
            raise GeometryError(f"signed region count at dilation {n} came out negative")
    values = [counted[n] for n in window]
    for i in range(deg, max(len(values), max(wanted, default=0) + dim * m - start + 1)):
        f = -sum(c * v for c, v in zip(d[1:], reversed(values[i - deg : i])))
        if i == len(values):
            values.append(f)
        elif values[i] != f:
            raise PeriodTooSmallError(
                f"count at n={start + i} deviates from the series recurrence "
                f"of degree {deg}"
            )
    polys = [None] * m
    for r in wanted:
        polys[r] = tuple(_newton_fit([(n, values[n - start])
                                      for n in range(r, r + (dim + 1) * m, m)]))
    return Quasipolynomial(m, dim, tuple(polys))

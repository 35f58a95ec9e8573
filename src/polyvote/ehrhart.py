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
none, and a count past its budget raises.
The Ehrhart series sum_{n >= 0} f(n) t^n of a region is h(t)/D(t),
deg h < deg D, where the cyclotomic Phi_k divides D at most
#{vertices v of a term : k divides den v} times (Stanley, EC I, 4.6),
and at most 1 + min e_q times, q over 1 and the prime powers exactly
dividing k, e_q the largest dimension of a face of the term whose
vertex denominators q all divides (McMullen 1978: q divides the index
of that face).  So the deg D values of one window fix every residue
class.  D stays factored as prod_j (1 - t^j)^e_j, and each use of it
is one strided pass per factor (``_times_d``): the window times D
gives the numerator of the series from its first n and spare values
that must vanish; less D times the window's values at n < 0, that
numerator is h shifted.  By Ehrhart-Macdonald reciprocity the value at
n = -k is (-1)^dim(P) times the lattice count of the relative interior
of kP, whose rows not tight on all of P are strict: a.x <= b.k - 1.
So the window is about n = -deg D / 2 ... deg D / 2, whatever the
period (``_window_span``).  It prepares one counter per term and side,
closed and relative interior (``_counter``): the plan is read and the
recursion built once, and each dilation still has its own node budget
and memo.  The series, D's factors and h (``EhrhartSeries``), is built
once per process for each region's nonempty terms and budget
(``_series``), and both a fit and a region count read it.  A value at
n comes from h / D extended by ``_times_d`` or from Bostan and Mori's
halving of n on D's factors, whichever takes fewer steps
(``_read_steps``); a residue class is fitted in integers on dim + 1
extended values, only when asked (``EhrhartSeries.fit``).  A region
count reads the series when the window's counts and the read cost less
than enumerating nP would.  A window past the budget is refused before
D is built, and in dimension <= 2 once more after.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import itemgetter
from types import MappingProxyType

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


class PeriodTooSmallError(GeometryError):
    """Held-back counts disagreed with the series recurrence: a fault of
    the series denominator's bound, not of the input."""


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
    nodes (see ``_counter``)."""
    if n < 0:
        raise ValueError("dilation must be non-negative")
    if poly.is_empty():
        return 0
    return _counter(poly, 0, budget)(n)


def _term_value(poly: HPolytope, budget: int):
    """value(n): the counting quasipolynomial of a nonempty P at n, the
    count of nP for n >= 0, and at n = -k (-1)^dim(P) times the lattice
    points of the relative interior of kP, where the implicit equalities
    stay and every other inequality row becomes a.x <= b.k - 1.
    dim(P) is the ambient dimension less the codimension.  It holds one
    closed and one relative-interior counter (``_counter``)."""
    closed, interior = _counter(poly, 0, budget), _counter(poly, 1, budget)
    sign = (-1) ** (poly.dim - _count_plan(poly)[-1])
    return lambda n: closed(n) if n >= 0 else sign * interior(-n)


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


def _counter(poly: HPolytope, interior: int, budget: int):
    """count(n): the integer points x of a nonempty P's dilation with
    a.x <= b.n - interior.s on each row (a, b, s) of ``_le_rows``: nP
    itself at interior = 0, its relative interior at interior = 1.  The
    plan is read and the recursion built once; each count starts its own
    node tally and its own memo per memoized level.

    Coordinates before the last two are enumerated between their
    ``_shadows`` bounds, which a bounded P has on both sides at every
    level; the last two are closed by ``_polygon_count`` (a
    1-dimensional P by its interval).  Each enumeration of x_l over
    [xlo, xhi] first charges xhi - xlo + 1 nodes, and a charge past
    ``budget`` raises BudgetExceededError."""
    rows, deltas, shadows, memo_keys, upper, lower, _ = _count_plan(poly)
    closed = poly.dim - 2
    n = nodes = 0
    memos = {}

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

    def memoized(level: int, res: list[int]) -> int:
        memo, key_of = memos[level]
        key = key_of(res)
        total = memo.get(key)
        if total is None:
            total = memo[key] = rec(level, res)
        return total

    enter = [memoized if level in memo_keys else rec for level in range(poly.dim)]

    def count(dilation: int) -> int:
        nonlocal n, nodes, memos
        n, nodes = dilation, 0
        memos = {level: ({}, key_of) for level, key_of in memo_keys.items()}
        return enter[0](0, [b * n - interior * s for _, b, s in rows])

    return count


def region_count(region: EventRegion, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """The region's count, sum(w * count) over its weighted terms.  A
    negative total means the terms describe no set of points, which
    raises GeometryError, as a negative volume does.

    A count of nP visits about (n + 1)^(dim - 2) nodes.  The Ehrhart
    series is read instead when its steps fit in ``budget`` and, with
    the window's ``_window_nodes``, make fewer nodes: a step per test of
    a vertex denominator by a divisor in D's build, as the build counts
    them (per term, its vertices times its ``_divisors``; the face
    search is not priced), and the steps of reading f(n) off h / D
    (``_read_steps``).  The series is then the one ``ehrhart_series``
    returns (``_series``): built once per process for these terms and
    this budget, so after ``ehrhart_series`` a count builds no D and
    counts no window.  Before D is built, the window's nodes alone are
    tested on the largest vertex denominator, a lower bound of deg D as
    1 - t^den divides D; a dimension <= 2 always enumerates.  On either
    route ``budget`` also bounds each count."""
    if n < 0:
        raise ValueError("dilation must be non-negative")
    dim = region.dim
    terms = tuple((s, p) for s, p in region.terms if not p.is_empty())
    total = None
    if dim > 2 and terms:
        nodes = (n + 1) ** (dim - 2)
        top = max(den for _, p in terms for _, den in polytope._vertices(p))
        if _window_nodes(top, dim) < nodes:
            exps, tests = _series_denominator(terms)
            deg = sum(j * e for j, e in exps.items())
            steps = tests + _read_steps(exps, n)[0]
            if steps <= budget and _window_nodes(deg, dim) + steps < nodes:
                total = _series(dim, terms, budget).value(n)
    if total is None:
        total = sum(s * count_lattice_points(p, n, budget) for s, p in terms)
    if total < 0:
        raise GeometryError(f"signed region count at dilation {n} came out negative")
    return total


# ---------------------------------------------------------------------------
# quasipolynomials


def _class_fit(ys, r: int, m: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of the degree-d polynomial p with p(r +
    k.m) = ys[k], k = 0 ... d, in integers until one division per
    coefficient.  With Newton's forward differences on u = (n - r) / m,
    p(n) = sum_k Delta^k ys[0] C(u, k), and d! m^d C(u, k) is
    d!/k! m^(d-k) prod_{j<k} (n - r - j.m), a polynomial in n with
    integer coefficients; so is d! m^d p, built by Horner's rule on the
    Newton form."""
    d = len(ys) - 1
    diffs = list(ys)
    newton = []
    for k in range(d + 1):
        newton.append(diffs[0] * math.factorial(d) // math.factorial(k) * m ** (d - k))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    poly = [newton[d]]
    for k in range(d - 1, -1, -1):
        # poly = poly * (n - (r + k.m)) + newton[k]
        x = r + k * m
        poly = [newton[k] - x * poly[0]] + [a - x * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
    scale = math.factorial(d) * m**d
    return tuple(Fraction(c, scale) for c in poly)


# ---------------------------------------------------------------------------
# the Ehrhart series


def _divisors(poly: HPolytope) -> dict[int, tuple[int, ...]]:
    """{k: qs} for k over the divisors of a nonempty P's vertex
    denominators, qs holding 1 and the prime powers exactly dividing
    k.  Each distinct denominator is factored once, by trial division."""
    divisors = {}
    for den in {den for _, den in polytope._vertices(poly)}:
        parts = {1: (1,)}
        p = 2
        while den > 1:
            if p * p > den:
                p = den
            a = 0
            while den % p == 0:
                den //= p
                a += 1
            parts = {k * p**i: qs + (p**i,) if i else qs
                     for k, qs in parts.items() for i in range(a + 1)}
            p += 1
        divisors.update(parts)
    return divisors


def _deepest_faces(poly: HPolytope, divisors) -> dict[int, int]:
    """{q: e_q} for q = 1 and every prime power q dividing a vertex
    denominator of a nonempty P (the qs of ``divisors``, P's
    ``_divisors``): e_q is the largest dimension of a face of P all of
    whose vertices v have q | den v, so e_1 = dim P.

    The faces inside V_q, the vertices with q | den, grow from its
    vertices by joins: the least face holding a vertex set S is the AND
    of the incidence masks of the rows tight on all of S, and a join is
    kept only while it stays inside V_q.  A face's dimension is dim
    less the rank of the equalities and the rows tight on it, read on
    the inclusion-maximal faces: those no join keeps inside V_q."""
    verts = polytope._vertices(poly)
    rows = poly.integer_rows()
    incidence = verts.incidence
    equalities = [coeffs for coeffs, rel, _ in rows if rel == EQ]
    full = (1 << len(verts)) - 1

    def closure(s: int) -> int:
        face = full
        for mask in incidence:
            if mask & s == s:
                face &= mask
        return face

    def face_dim(face: int) -> int:
        tight = [rows[i][0] for i, mask in enumerate(incidence) if mask & face == face]
        return poly.dim - polytope._rank(equalities + tight)

    deepest = {}
    for q in set().union(*divisors.values()):
        inside = sum(1 << v for v, (_, den) in enumerate(verts) if den % q == 0)
        if closure(inside) == inside:  # V_q is a face itself
            deepest[q] = face_dim(inside)
            continue
        faces = {1 << v for v in range(len(verts)) if inside >> v & 1}
        stack = list(faces)
        deepest[q] = 0
        while stack:
            face = stack.pop()
            maximal = True
            rest = inside & ~face
            while rest:
                low = rest & -rest
                rest ^= low
                joined = closure(face | low)
                if joined & ~inside == 0:  # a larger face inside V_q
                    maximal = False
                    if joined not in faces:
                        faces.add(joined)
                        stack.append(joined)
            if maximal:
                deepest[q] = max(deepest[q], face_dim(face))
    return deepest


@functools.lru_cache(maxsize=4096)
def _series_denominator(terms) -> tuple[MappingProxyType, int]:
    """(exps, tests): D = prod_k Phi_k^c_k, c_k the largest over the
    nonempty ``terms`` of the least of two bounds, as its factors exps =
    {j: e_j} of D = prod_j (1 - t^j)^e_j, and the tests of a vertex
    denominator by a divisor that the build made, each term's vertices
    times its divisors.  e_j is c_j less the e of j's proper multiples,
    and may be negative.  D(0) = 1 and deg D = sum_j j.e_j.

    Stanley's bound is #{v : k divides den v} (EC I, 4.6; its cap
    dim + 1 is implied by the other).  McMullen's: the coefficient of
    n^i has a period dividing the least p for which the affine hull of
    every i-face of pP holds an integer point, and den(v).v is one for
    a vertex v of the face, so a prime power q dividing that p divides
    den v for every vertex of some i-face.  Hence Phi_k divides D at
    most 1 + min e_q times, q over 1 and the prime powers exactly
    dividing k (``_deepest_faces``).  k walks the divisors of each
    term's vertex denominators (``_divisors``); c_k = 0 for every other
    k.  Memoized on the tuple of terms, the factors as a read-only
    mapping: a region count prices its series route on D and its tests
    before it reads the series, which needs the same D."""
    mult = {}
    tests = 0
    for _, p in terms:
        dens = [den for _, den in polytope._vertices(p)]
        divisors = _divisors(p)
        deepest = _deepest_faces(p, divisors)
        tests += len(divisors) * len(dens)
        for k, qs in divisors.items():
            c = min(sum(den % k == 0 for den in dens), 1 + min(deepest[q] for q in qs))
            mult[k] = max(mult.get(k, 0), c)
    exps = {}
    for k in sorted(mult, reverse=True):
        e = mult[k] - sum(f for j, f in exps.items() if j % k == 0)
        if e:
            exps[k] = e
    return MappingProxyType(exps), tests


def _times_d(seq, exps, power: int) -> list[int]:
    """The power series ``seq`` times D^power (power = 1 or -1), D =
    prod_j (1 - t^j)^e_j from ``exps``, cut to len(seq): each factor
    multiplied in is one strided difference, each factor divided out
    one strided prefix sum, so every step stays in ints."""
    s = list(seq)
    for j, e in exps.items():
        for _ in range(power * e):  # times 1 - t^j
            s[j:] = [a - b for a, b in zip(s[j:], s)]
        for _ in range(-power * e):  # over 1 - t^j
            for r in range(j):
                s[r::j] = itertools.accumulate(s[r::j])
    return s


def _window_span(deg: int) -> range:
    """The window's dilations for a series denominator of degree
    ``deg``: deg + VALIDATION_POINTS of them from n = -floor(deg / 2),
    about n = 0 so that the largest |n| is least."""
    return range(-(deg // 2), deg - deg // 2 + VALIDATION_POINTS)


def _window(terms, exps, budget: int) -> list[int]:
    """The deg D coefficients h of sum_{n >= 0} f(n) t^n = h(t) / D(t),
    f the signed value of the nonempty ``terms``, from f counted on
    ``_window_span``.  Each term's value (``_term_value``) is prepared
    once, and f is counted at every n of the span, largest |n| first, so
    the count likeliest to pass ``budget`` nodes runs before the others;
    at n >= 0 it is the signed count of nP, which must not be negative
    (GeometryError), and at n = -k the signed sum of the terms'
    reciprocity values.  The values times D are the numerator of the
    series from the span's first n, then held-back coefficients that
    must be 0, or PeriodTooSmallError.  That numerator less the span's
    values at n < 0 times D is t^k h(t), k the number of those n."""
    deg = sum(j * e for j, e in exps.items())
    window = _window_span(deg)
    values = [(s, _term_value(p, budget)) for s, p in terms]
    counted = {}
    for n in sorted(window, key=abs, reverse=True):
        counted[n] = sum(s * value(n) for s, value in values)
        if counted[n] < 0 <= n:
            raise GeometryError(f"signed region count at dilation {n} came out negative")
    h = _times_d([counted[n] for n in window], exps, 1)
    for i in range(deg, len(h)):
        if h[i]:
            raise PeriodTooSmallError(
                f"count at n={window.start + i} deviates from the series recurrence "
                f"of degree {deg}"
            )
    k = -window.start
    below = _times_d([counted[n] for n in range(window.start, 0)] + [0] * deg, exps, 1)
    return [a - b for a, b in zip(h[k:deg] + [0] * k, below[k:])]


def _halvings(exps, i: int):
    """The rounds of ``_series_term``'s halving of i, on D's factors
    alone: (i, exps) before each round, exps the factors {j: e_j} of
    that round's denominator.  D(t) D(-t) is a series in u = t^2 whose
    factors are (j/2, 2e) for an even j and (j, e) for an odd one; its
    degree in u is deg D again."""
    while i:
        yield i, exps
        halved = {}
        for j, e in exps.items():
            if j % 2 == 0:
                j, e = j // 2, 2 * e
            halved[j] = halved.get(j, 0) + e
        exps = {j: e for j, e in halved.items() if e}
        i //= 2


def _series_term(h, exps, i: int) -> int:
    """Coefficient i of h / D, h of deg D coefficients, by Bostan and
    Mori's halving: h(t) D(-t) / (D(t) D(-t)) has a denominator in t^2,
    of the factors ``_halvings`` gives, so coefficient i is coefficient
    i // 2 of the numerator's terms of i's parity over it.  h(t) D(-t)
    is (h(-t) D(t)) at -t.  At i = 0 it is h(0), as D(0) = 1."""
    for i, exps in _halvings(exps, i):
        w = _times_d([-c if k % 2 else c for k, c in enumerate(h)] + [0] * len(h), exps, 1)
        h = [-c for c in w[1::2]] if i % 2 else w[::2]
    return h[0] if h else 0


def _window_nodes(deg: int, dim: int) -> int:
    """The node bound of the window of a series denominator of degree
    ``deg`` in dimension dim >= 3: the sum of (|n| + 1)^(dim - 2) over
    its n, in closed form by sum_{k=1}^{K} k^p = sum_j S(p, j) j!
    C(K + 1, j + 1), S the Stirling numbers of the second kind."""
    p = dim - 2
    stirling = [1]  # S(q, j) for j = 0 ... q, up to q = p
    for q in range(1, p + 1):
        stirling = [0] + [j * s + t for j, s, t in
                          zip(range(1, q + 1), stirling[1:] + [0], stirling)]

    def power_sum(k: int) -> int:
        return sum(s * math.factorial(j) * math.comb(k + 1, j + 1)
                   for j, s in enumerate(stirling))

    span = _window_span(deg)
    # n = start ... 0 and 0 ... the last n, n = 0 counted once
    return power_sum(1 - span.start) + power_sum(span[-1] + 1) - 1


def _read_steps(exps, i: int) -> tuple[int, bool]:
    """The steps of reading coefficient i of h / D, and whether that
    is by halving: extending h by ``_times_d`` makes a pass over i + 1
    coefficients per factor of D, sum |e_j| of them, and each round of
    ``_series_term`` one over 2 deg D per factor of its denominator
    (``_halvings``).  The cheaper of the two is taken, on n and D
    alone."""
    extend = (i + 1) * sum(abs(e) for e in exps.values())
    halve = 2 * sum(j * e for j, e in exps.items()) * sum(
        abs(e) for _, f in _halvings(exps, i) for e in f.values())
    return min(extend, halve), halve < extend


class EhrhartSeries(namedtuple("EhrhartSeries", "dim period factors h")):
    """sum_{n >= 0} f(n) t^n = h(t) / D(t) for the counting
    quasipolynomial f of a region in dimension ``dim``: D = prod_j (1 -
    t^j)^e_j from ``factors`` {j: e_j}, h its deg D integer coefficients
    and ``period`` the vertex-denominator lcm, a multiple of f's
    period."""

    __slots__ = ()

    def values(self, stop: int) -> list[int]:
        """f(n) for n in range(stop): h, padded with zeros, over D."""
        size = max(stop, 0)
        return _times_d((list(self.h) + [0] * size)[:size], self.factors, -1)

    def value(self, n: int) -> int:
        """f(n) for n >= 0, by ``values`` or ``_series_term``, whichever
        ``_read_steps`` finds fewer."""
        if n < 0:
            raise ValueError(f"the series starts at n=0, not {n}")
        if _read_steps(self.factors, n)[1]:
            return _series_term(self.h, self.factors, n)
        return self.values(n + 1)[n]

    def fit(self, classes) -> dict[int, tuple[Fraction, ...]]:
        """{r: ascending coefficients of f on n == r (mod m)} for the
        residue classes r of ``classes`` taken modulo m, the period, in
        ascending r; ``fit(range(period))`` fits every class.  m is the
        vertex-denominator lcm, which f's minimal period divides.  The
        values, h padded with zeros over D, are extended to n = r, r + m,
        ..., r + dim.m, and each class is fitted through them in integers
        (``_class_fit``)."""
        m, d = self.period, self.dim
        wanted = sorted({c % m for c in classes})
        values = self.values(wanted[-1] + d * m + 1) if wanted else []
        return {r: _class_fit(values[r::m][: d + 1], r, m) for r in wanted}


@functools.lru_cache(maxsize=4096)
def _series(dim: int, terms, budget: int) -> EhrhartSeries:
    """The Ehrhart series of the nonempty ``terms`` in dimension dim,
    memoized per process on the terms and the budget; a refused or
    failed build raises and stores nothing.

    A window of degree deg or more is refused on ``_window_span(deg)``.
    In dimension >= 3 its first count is at its last n, where x0 alone
    takes at least floor(n.w) values, w a term's width in x0; when those
    pass ``budget``, that count would too.  In dimension <= 2 no count
    charges a node, so each window value charges one.  The check runs on
    the largest vertex denominator, which deg D is at least, before D,
    whose build factors every vertex denominator, is built, and in
    dimension <= 2 once more on deg D.  Either raises
    BudgetExceededError before any count.  Then the window is counted
    and checked against D (``_window``)."""

    def refuse_past_budget(deg: int, what: str) -> None:
        span = _window_span(deg)
        if dim > 2:
            x0 = [[Fraction(v[0], den) for v, den in polytope._vertices(p)] for _, p in terms]
            nodes = max(span[-1] * (max(x) - min(x)) for x in x0) // 1
            reached = f"dilation {span[-1]} or more reached {nodes} nodes or more"
        else:
            nodes = len(span)
            reached = f"{nodes} window values or more, a node each"
        if nodes > budget:
            raise BudgetExceededError(f"{reached} (budget {budget}): the window of "
                                      f"{what} {deg}", nodes=nodes)

    dens = [den for _, p in terms for _, den in polytope._vertices(p)]
    if terms:
        refuse_past_budget(max(dens), "denominator")
    exps, _ = _series_denominator(terms)
    if terms and dim <= 2:
        refuse_past_budget(sum(j * e for j, e in exps.items()), "degree")
    return EhrhartSeries(dim, lcm(*dens), exps, tuple(_window(terms, exps, budget)))


def ehrhart_series(region: EventRegion, budget: int = DEFAULT_BUDGET) -> EhrhartSeries:
    """The Ehrhart series of a region: its ``_window_span(deg D)``
    values counted, checked against D, or PeriodTooSmallError, and kept
    as D's factors and h from n = 0 (``_series``).  It is memoized
    per process on the nonempty terms and ``budget``, so ``fit`` and
    ``region_count`` share it: a series built before under the same
    budget is read from the memo and no count runs."""
    terms = tuple((s, p) for s, p in region.terms if not p.is_empty())
    return _series(region.dim, terms, budget)

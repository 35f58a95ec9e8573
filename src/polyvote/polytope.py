"""Rational polytopes in halfspace representation.

A row is a triple (coeffs, rel, rhs) meaning ``coeffs . x rel rhs``,
with rel one of ``<=``, ``>=`` and ``=``.  An ``HPolytope`` holds the
sorted, deduplicated coprime integer rows its closed rows canonicalize
to, and compares and hashes by them; ``integer_rows()`` hands them out.
Event compilers build integer rows and pass them straight to
``HPolytope._from_rows``; rational rows are scaled to integers once, on
construction, and intersection merges the stored rows.  The geometry
kernel stays in integers from the H-representation to one final
division.  Vertex enumeration is a double-description method on the
homogenized cone {(x, t) : a.x <= b.t, t >= 0}: a simplicial seed cone
of dim+1 independent rows (the equalities, t >= 0, then the sparsest
inequalities), whose rays are read off a Gauss-Jordan elimination of
the seed matrix that combines only the rows nonzero in each pivot
column, is cut by the other rows one at a time, densest first.  New
rays combine adjacent pairs, and adjacency is a combinatorial test on
zero sets kept as int bitmasks: a scan of the current zero sets must
find no third ray tight on every row the pair is tight on.  The rays
with t > 0 are the vertices, and their zero sets are the vertex/row
incidence.  The greedy reduction that picks the seed
(``_independent``) answers every rank question of the kernel.  When the seed fills, the rows have rank dim, and the pointed
cone also decides emptiness (no ray with t > 0) and boundedness (no
ray with t = 0).  When it holds t >= 0 but fewer rows, the rows have
rank below dim and the polytope is empty or holds a line; the unit
rows that complete them to a basis pin those coordinates to 0, and one
more run on that system of rank dim tells which.  Vertices stay
(numerators, denominator) pairs reduced by their gcd.  Volume first
finds the classes of interchangeable coordinates, those whose swap
maps the integer rows onto themselves; when some class has three or
more members, it orders every class and works on that Weyl chamber
alone, multiplying by the product of the classes' factorials, so the
full polytope's vertices are never enumerated.  The chamber keeps
only the inequality rows whose coefficients are non-increasing along
each class: the class swaps map the rows onto themselves, so each
row's sorted image is a row too, and by the rearrangement inequality
it implies the row on the chamber (at N = 13, k = 7 a referendum
district chamber has 16 rows instead of 38).  It scales the
vertices to their common denominator D and sums the determinants of a
pulling triangulation by a facet recursion down the face lattice, read
from the incidence bitmasks and memoized on faces; each step is one
integer product and one exact division, and the sum is divided once
by D^dim * dim!.  Vertices and volumes are memoized per polytope.
The double-description states are memoized across polytopes, keyed on
the seed (dim, its rows in order, its number of equalities) and the
rows cut so far, in order, for the 4096 most recently used states: a
run resumes from the longest prefix of its cuts that another polytope
already made.  Zero sets index processing positions, not a polytope's
rows, and ``_vertices`` maps them back to its inequality rows.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict, namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .linalg import DimensionError, parse_rational

LE, GE, EQ = "<=", ">=", "="
_RELATIONS = (LE, GE, EQ)


class GeometryError(Exception):
    """A geometric precondition failed."""


class UnboundedPolytopeError(GeometryError):
    """The polytope admits a recession direction."""


IntRow = tuple[tuple[int, ...], str, int]


def _canonical(coeffs, rel: str, rhs: tuple[int, int], dim: int) -> IntRow | None:
    """Scale a row whose coefficients and right-hand side are
    (numerator, denominator) pairs, denominators positive, to integers
    by the lcm of its denominators, orient ``>=`` as ``<=`` and hand it
    to ``_integer_row``."""
    if rel not in _RELATIONS:
        raise ValueError(f"relation must be one of {_RELATIONS}")
    if len(coeffs) != dim:
        raise DimensionError(f"constraint has {len(coeffs)} coefficients, expected {dim}")
    mult = lcm(*(den for _, den in coeffs), rhs[1])
    ints = [num * (mult // den) for num, den in coeffs]
    b = rhs[0] * (mult // rhs[1])
    if rel == GE:
        ints, rel, b = [-a for a in ints], LE, -b
    return _integer_row(ints, rel, b)


def _integer_row(ints: list[int], rel: str, b: int) -> IntRow | None:
    """Divide an integer ``<=`` or ``=`` row by its gcd and make an
    equality's leading coefficient positive.  Returns the row (coeffs,
    rel, rhs), or None for rows satisfied everywhere; infeasible
    constant rows normalize to the single false row 0 <= -1."""
    if not any(ints):
        feasible = (b >= 0) if rel == LE else (b == 0)
        if feasible:
            return None
        return (0,) * len(ints), LE, -1
    g = gcd(*ints, b)
    if rel == EQ and next(v for v in ints if v != 0) < 0:
        g = -g
    return tuple(v // g for v in ints), rel, b // g


class HPolytope:
    """Intersection of closed halfspaces and hyperplanes in R^dim.

    Built from rational rows (coeffs, rel, rhs) and held as the sorted,
    deduplicated coprime integer rows they canonicalize to; polytopes
    compare and hash by (dim, rows).  The hash is computed once, on
    construction, since every memo lookup of the kernel takes it.
    Polytopes are immutable: assigning a field raises AttributeError."""

    __slots__ = ("dim", "_rows", "_hash")

    def __init__(self, dim: int, rows):
        self._set_rows(dim, (
            _canonical([Fraction(a).as_integer_ratio() for a in coeffs], rel,
                       Fraction(rhs).as_integer_ratio(), dim)
            for coeffs, rel, rhs in rows
        ))

    @classmethod
    def _from_rows(cls, dim: int, rows) -> "HPolytope":
        """Build from integer rows already in ``_integer_row`` form."""
        poly = object.__new__(cls)
        poly._set_rows(dim, rows)
        return poly

    def _set_rows(self, dim: int, rows) -> None:
        if dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        rows = set(rows)
        rows.discard(None)
        rows = tuple(sorted(rows, key=lambda r: (r[1], r[0], r[2])))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_hash", hash((dim, rows)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an HPolytope")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an HPolytope")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dim == other.dim and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"HPolytope(dim={self.dim!r}, _rows={self._rows!r})"

    # -- basic predicates ------------------------------------------------

    def has_false_row(self) -> bool:
        return any(
            rel == LE and rhs == -1 and not any(coeffs)
            for coeffs, rel, rhs in self._rows
        )

    # -- constructive operations ------------------------------------------

    def intersect(self, other: "HPolytope") -> "HPolytope":
        if self.dim != other.dim:
            raise DimensionError("cannot intersect polytopes of different dimensions")
        return HPolytope._from_rows(self.dim, self._rows + other._rows)

    # -- derived data ------------------------------------------------------

    def integer_rows(self) -> tuple[IntRow, ...]:
        """Constraints as the coprime integer tuples (coeffs, rel, rhs)
        they were canonicalized to."""
        return self._rows

    def volume(self) -> Fraction:
        return _volume(self)

    def is_empty(self) -> bool:
        return not _vertices(self)


class EventRegion(namedtuple("EventRegion", "terms")):
    """Signed inclusion-exclusion decomposition of a union of polytopes:
    ``terms`` holds (sign, polytope) pairs, each sign +1 or -1."""

    __slots__ = ()

    def __new__(cls, terms):
        terms = tuple((int(s), p) for s, p in terms)
        if not terms:
            raise ValueError("region needs at least one term")
        if any(s not in (1, -1) for s, _ in terms):
            raise ValueError("term signs must be +1 or -1")
        dims = {p.dim for _, p in terms}
        if len(dims) != 1:
            raise DimensionError("all region terms must share one dimension")
        return super().__new__(cls, terms)

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def volume(self) -> Fraction:
        total = sum((s * p.volume() for s, p in self.terms), Fraction(0))
        if total < 0:
            raise GeometryError("signed region volume came out negative")
        return total

    def intersect(self, other: "EventRegion") -> "EventRegion":
        terms = tuple(
            (s * t, p.intersect(q)) for s, p in self.terms for t, q in other.terms
        )
        return EventRegion(terms)

    @classmethod
    def of(cls, polytope: HPolytope) -> "EventRegion":
        return cls(((1, polytope),))


# ---------------------------------------------------------------------------
# vertex enumeration


def _reduce_against(echelon, row):
    """Eliminate the pivots of ``echelon``, a list of (row, pivot
    column) pairs, from the integer ``row``.  Returns the reduced row
    divided by its gcd, or None when ``row`` depends on the echelon."""
    for erow, pivot_col in echelon:
        f = row[pivot_col]
        if f:
            p = erow[pivot_col]
            row = [r * p - e * f for r, e in zip(row, erow)]
    if not any(row):
        return None
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _seed_rays(m):
    """The columns of -m^-1 for a square integer matrix m, each as the
    primitive integer vector of its direction; None when m is singular.

    Gauss-Jordan on [m | I] touches a row only when it is nonzero in
    the pivot column: it becomes p * row - f * pivot_row, divided by its
    gcd.  Each pivot row is zero in the earlier pivot columns, so
    [m | I] ends as [diag(d) | B] with m^-1 = diag(d)^-1 B, and column
    s of -m^-1, scaled by lcm(d), is -B[i][s] * lcm(d) / d_i.  A seed
    of unit rows, a signed permutation, takes no combination at all."""
    n = len(m)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        rc = a[c]
        p = rc[c]
        for i in range(n):
            f = a[i][c]
            if f and i != c:
                row = [x * p - f * y for x, y in zip(a[i], rc)]
                g = gcd(*row)
                a[i] = [v // g for v in row] if g > 1 else row
    d = lcm(*(a[i][i] for i in range(n)))
    scale = [d // a[i][i] for i in range(n)]
    rays = []
    for s in range(n, 2 * n):
        ray = [-row[s] * k for row, k in zip(a, scale)]
        g = gcd(*ray)
        rays.append(tuple(v // g for v in ray) if g > 1 else tuple(ray))
    return rays


def _independent(rows, limit=None) -> list[int]:
    """Indices of the integer rows independent of the rows before them,
    a greedy basis by ``_reduce_against``, stopping after ``limit``."""
    echelon, picked = [], []
    for i, row in enumerate(rows):
        red = _reduce_against(echelon, row)
        if red is not None:
            echelon.append((red, next(j for j, v in enumerate(red) if v)))
            picked.append(i)
            if len(picked) == limit:
                break
    return picked


def _rank(rows) -> int:
    return len(_independent(rows))


def _nonzeros(row) -> int:
    return len(row) - row.count(0)


class _LRUMemo(OrderedDict):
    """A memo of the ``limit`` most recently used entries, least
    recently used first.  ``hits`` counts the entries read, ``misses``
    the entries stored; ``clear`` resets both."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self.hits = self.misses = 0

    def read(self, key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
            self.hits += 1
        return value

    def keep(self, key, value) -> None:
        self[key] = value
        self.misses += 1
        if len(self) > self.limit:
            self.popitem(last=False)

    def clear(self) -> None:
        super().clear()
        self.hits = self.misses = 0


# double-description states shared by every polytope of the process:
# (dim, seed rows in seed order, equalities in the seed, *rows cut so
# far, in order) -> (rays, zero sets) after the last of those cuts
_dd_states = _LRUMemo(4096)


def _basic_solutions(rows, dim):
    """Vertices and recession rays of a row system, by double description.

    The rows are homogenized to the cone {(x, t) : a.x - b.t <= 0, with
    = for equalities, t >= 0} in R^(dim+1); its extreme rays with t > 0
    are the vertices scaled by their denominators.  The cone starts as
    the simplicial cone of dim+1 independent rows: the equalities, then
    t >= 0, then the inequalities sparsest first, by nonzero count.  Its
    rays are the columns of the seed matrix's inverse, negated
    (``_seed_rays``): each is tight on every seed row but one.  The
    other inequalities then cut the cone densest first (Fukuda &
    Prodon 1996: the order decides how large the cone grows; a dense
    row such as the popular vote of a district polytope, cut before the
    box rows, keeps it small).  A cut that no ray violates only adds
    its row to the zero sets of the rays on it.  Otherwise rays with
    h.r <= 0 stay, and each adjacent pair with h.r+ > 0 > h.r- gives
    (h.r+) r- - (h.r-) r+, reduced by its gcd.  Two rays are adjacent
    when no third ray is tight on every processed row both are tight
    on: zero sets are int bitmasks over the processing positions (the
    seed rows in seed order, then each cut in turn), and the test scans
    the current zero sets for supersets of the pair's common one,
    stopping at the third.  A new ray is tight exactly on the rows both
    its parents are tight on, and on the row that made it, so every
    zero set is exact.

    The cone after a row sequence is a function of that sequence, so
    its states are shared by every polytope of the process
    (``_dd_states``): the key is (dim, the seed's rows in seed order,
    the number of equalities in the seed) followed by the rows cut so
    far, in order, and the value the rays and zero sets after the last
    of them, the seed's own state included.  Position bits name no
    polytope's row indices, so a state serves every polytope whose cuts
    start with its rows.  A run resumes after the longest prefix of its
    cuts already made and stores the state after each new cut, one that
    no ray violates too; the memo keeps the 4096 most recently used
    states.  The paper's events are many polytopes over one seed whose
    densest rows recur, so their runs share many of their cuts.
    Returns the vertices as ((numerator tuple, denominator), mask)
    pairs, the mask holding bit p when the vertex is tight on the row at
    position p, the extreme rays with t = 0, the recession directions,
    and the index among the inequality rows of the row at each position
    (None for the seed's equalities and t >= 0); ([], [], []) when the
    equalities are inconsistent, and None when the seed holds t >= 0
    but fewer than dim+1 rows: the rows then have rank < dim, and the
    cone is not pointed.  Both are decided before the memo is read."""
    width = dim + 1
    cone = [(*coeffs, -rhs) for coeffs, rel, rhs in rows if rel == EQ]
    t_row = len(cone)
    cone.append((0,) * dim + (-1,))
    cone += [(*coeffs, -rhs) for coeffs, rel, rhs in rows if rel != EQ]
    inequalities = range(t_row + 1, len(cone))

    order = [*range(t_row + 1), *sorted(inequalities, key=lambda i: _nonzeros(cone[i]))]
    seed = [order[k] for k in _independent([cone[i] for i in order], width)]
    if t_row not in seed:
        return [], [], []  # the equalities force t = 0: they are inconsistent
    if len(seed) < width:
        return None  # the rows have rank < dim: the cone holds a line
    # an equality that is not in the seed is implied by the ones that are

    # zero sets index processing positions: the seed rows, then the cuts
    equalities = seed.index(t_row)
    seeded = set(seed)
    cut = [i for i in sorted(inequalities, key=lambda i: -_nonzeros(cone[i])) if i not in seeded]
    key = (dim, tuple(cone[i] for i in seed), equalities)
    state = _dd_states.read(key)
    if state is None:
        # column s of -m^-1 is tight on every seed row but the s-th, and
        # strictly inside that one; the equalities' columns leave them
        seed_mask = (1 << width) - (1 << equalities)
        state = (tuple(_seed_rays(key[1])[equalities:]),
                 tuple(seed_mask & ~(1 << s) for s in range(equalities, width)))
        _dd_states.keep(key, state)
    # resume after the longest prefix of the cuts already made
    done = 0
    for i in cut:
        found = _dd_states.read(key + (cone[i],))
        if found is None:
            break
        key += (cone[i],)
        state, done = found, done + 1
    rays, zeros = state

    # adjacent rays share a 2-face, so at least this many tight
    # inequalities besides the seed's equalities
    need = width - 2 - equalities
    for position, i in enumerate(cut[done:], width + done):
        h, bit = cone[i], 1 << position
        vals = [sum(map(mul, h, ray)) for ray in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        if pos:
            neg = [k for k, v in enumerate(vals) if v < 0]
            fresh_rays, fresh_zeros = [], []
            for p in pos:
                zp, vp = zeros[p], vals[p]
                for n in neg:
                    z = zp & zeros[n]
                    if z.bit_count() < need:
                        continue
                    # p and n are tight on z; adjacent when no third ray is
                    hits = 0
                    for zk in zeros:
                        if zk & z == z:
                            hits += 1
                            if hits > 2:
                                break
                    if hits > 2:
                        continue
                    vn = vals[n]
                    ray = [vp * a - vn * b for a, b in zip(rays[n], rays[p])]
                    g = gcd(*ray)
                    fresh_rays.append(tuple(v // g for v in ray))
                    fresh_zeros.append(z | bit)
            rays = tuple([ray for ray, v in zip(rays, vals) if v <= 0] + fresh_rays)
            zeros = tuple([z | bit if v == 0 else z for z, v in zip(zeros, vals) if v <= 0]
                          + fresh_zeros)
        else:
            # no ray violates the row: the cone stays, the rays on it
            # gain its bit
            zeros = tuple([z | bit if v == 0 else z for z, v in zip(zeros, vals)])
        key += (h,)
        _dd_states.keep(key, (rays, zeros))
    first = t_row + 1
    rows_at = [None] * (equalities + 1) + [i - first for i in seed[equalities + 1:] + cut]
    return ([((ray[:dim], ray[dim]), z) for ray, z in zip(rays, zeros) if ray[dim] > 0],
            [ray[:dim] for ray in rays if ray[dim] == 0], rows_at)


class _Vertices(tuple):
    """Sorted (numerators, denominator) pairs of a polytope's vertices.

    ``incidence`` has one int per inequality row, in the order of
    ``integer_rows()``: bit v is set when vertex v lies on the row."""

    incidence: tuple[int, ...] = ()


@functools.lru_cache(maxsize=4096)
def _vertices(poly: HPolytope) -> _Vertices:
    """The vertices and their row incidence; empty when the polytope is.

    Rows of rank dim make the homogenized cone pointed, so its extreme
    rays decide: none with t > 0 means empty, and one with t = 0 beside
    them is a recession direction.  Rows of lower rank leave a line in
    the cone: the polytope is empty or holds a line.  The unit rows e_j
    that complete the rows to a basis pin x_j = 0.  The null space of
    the rows maps one-to-one onto the pinned coordinates, so a nonempty
    polytope meets x_j = 0, and the pinned system, of rank dim, has a
    vertex exactly when the polytope is nonempty."""
    dim = poly.dim
    if poly.has_false_row():
        return _Vertices()
    rows = poly.integer_rows()
    found = _basic_solutions(rows, dim)
    if found is None:
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        basis = _independent([coeffs for coeffs, _, _ in rows] + units)
        pinned = [(units[k - len(rows)], EQ, 0) for k in basis if k >= len(rows)]
        if _basic_solutions(rows + tuple(pinned), dim)[0]:
            raise UnboundedPolytopeError("polytope is unbounded (its rows leave a line)")
        return _Vertices()
    sols, rays, rows_at = found
    if sols and rays:
        raise UnboundedPolytopeError("polytope is unbounded (the cone has a ray at t = 0)")
    sols.sort()
    incidence = [0] * sum(rel != EQ for _, rel, _ in rows)
    # zero sets index processing positions; rows_at names their rows
    for v, (_, zeros) in enumerate(sols):
        while zeros:
            low = zeros & -zeros
            incidence[rows_at[low.bit_length() - 1]] |= 1 << v
            zeros ^= low
    out = _Vertices(pair for pair, _ in sols)
    out.incidence = tuple(incidence)
    return out


def _implicit_equalities(poly: HPolytope) -> tuple[IntRow, ...]:
    """The rows tight on every point of a nonempty polytope: its ``=``
    rows and the inequality rows tight on every vertex.  Holding them
    with equality cuts out the affine hull."""
    verts = _vertices(poly)
    full = (1 << len(verts)) - 1
    rows = poly.integer_rows()
    # inequality rows sort first, in the order of the incidence
    tight = tuple(row for row, mask in zip(rows, verts.incidence) if mask == full)
    return tight + tuple(row for row in rows if row[1] == EQ)


# ---------------------------------------------------------------------------
# volume


def _interchangeable_classes(rows, dim) -> list[list[int]]:
    """The classes of coordinates whose swap maps the row set onto
    itself, each in increasing order.  Interchangeability is an
    equivalence ((i k) = (i j)(j k)(i j)), so each coordinate is
    compared with the first member of every class found so far; a row
    with equal coefficients on the two maps to itself."""
    row_set = set(rows)
    classes = []
    for i in range(dim):
        for cls in classes:
            j = cls[0]
            for coeffs, rel, rhs in rows:
                ci, cj = coeffs[i], coeffs[j]
                if ci != cj:
                    swapped = list(coeffs)
                    swapped[i], swapped[j] = cj, ci
                    if (tuple(swapped), rel, rhs) not in row_set:
                        break
            else:
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def _weyl_chamber(poly: HPolytope) -> tuple[HPolytope, int]:
    """(chamber, copies) with vol(poly) = copies * vol(chamber).

    The classes C of interchangeable coordinates give the subgroup
    prod S_C of the polytope's symmetries.  When some class has at least
    three members, every class of two or more is ordered,
    x_c(0) >= x_c(1) >= ..., by rows x_c(t+1) - x_c(t) <= 0, and copies
    is prod |C|!: the group maps this chamber onto each of the others,
    and they overlap in measure zero.  A polytope whose classes have at
    most two members is returned as it is, with copies 1: the 5-d
    share-space polytopes have classes of size 2, and their halves
    have as many vertices as they do, so the extra row costs more than
    halving saves.

    The chamber keeps every ``=`` row but only the ``<=`` rows whose
    coefficients are non-increasing along each ordered class.  The
    class swaps map the rows onto themselves, so a row with its
    coefficients sorted that way along each class is a row too, with
    the same right-hand side, and by the rearrangement inequality it
    dominates the original on the chamber: a.x <= sorted(a).x.  The
    dropped rows are implied, and the chamber is the same polytope: the
    referendum district chamber at N = 13, k = 7 has 16 rows instead of
    38."""
    dim = poly.dim
    rows = poly.integer_rows()
    classes = [c for c in _interchangeable_classes(rows, dim) if len(c) > 1]
    if all(len(c) < 3 for c in classes):
        return poly, 1
    pairs = [(a, b) for cls in classes for a, b in zip(cls, cls[1:])]
    kept = [row for row in rows
            if row[1] == EQ or all(row[0][a] >= row[0][b] for a, b in pairs)]
    for a, b in pairs:
        coeffs = [0] * dim
        coeffs[a], coeffs[b] = -1, 1
        kept.append((tuple(coeffs), LE, 0))
    return (HPolytope._from_rows(dim, kept),
            math.prod(math.factorial(len(c)) for c in classes))


@functools.lru_cache(maxsize=4096)
def _volume(poly: HPolytope) -> Fraction:
    """Sum the simplex determinants of a pulling triangulation by a
    facet recursion on the vertex incidence, and divide once.

    The vertices are scaled to their common denominator D.  For a face
    F of dimension k, projected one-to-one onto a coordinate set C,
    S(F, C) is the sum of |det| over the simplices of the pulling
    triangulation of F: the cones from its lowest vertex p over the
    facets G that miss p.  A facet's row a.x <= b, rewritten in the
    coordinates C, has a first nonzero a_j; the cone over G then adds
    |b - a.p| * S(G, C - {j}) / |a_j|, an integer.  The facets of F are
    the inclusion-maximal proper nonempty sets of its vertices tight on
    one row; the facets of G are its intersections with the other
    facets of F, whose rows take G's row substituted for x_j (Lasserre
    1983).  S is memoized on (vertex set, C), and the volume is
    S(P, all) / (D^dim * dim!).  A polytope with an implicit equality
    is flat: volume 0.

    All of this runs on the Weyl chamber of ``_weyl_chamber``, and the
    sum is multiplied by its number of copies; the full polytope's
    vertices are never enumerated.  An invariant polytope that is
    empty, flat or unbounded has a chamber that is too, so those
    answers carry over."""
    dim = poly.dim
    chamber, copies = _weyl_chamber(poly)
    verts = _vertices(chamber)
    if not verts or _implicit_equalities(chamber):
        return Fraction(0)
    full = (1 << len(verts)) - 1
    rows = chamber.integer_rows()
    D = lcm(*(den for _, den in verts))
    points = [[p * (D // den) for p in nums] for nums, den in verts]
    memo = {}

    def faces(ids, cols, cuts):
        """S(F, C) for the face F with vertex bitmask ``ids``, projected
        onto the coordinate tuple ``cols``, one per dimension of F.
        ``cuts`` hold the rows that may cut a facet from F (those of the
        parent's facets that meet F in a proper subset) as (mask,
        coefficients on ``cols``, rhs)."""
        k = len(cols)
        if k == 1:
            lo = ids & -ids
            c = cols[0]
            return abs(points[(ids ^ lo).bit_length() - 1][c] - points[lo.bit_length() - 1][c])
        sets = {}
        for row in cuts:
            sets.setdefault(row[0] & ids, row)
        # a facet of a k-face has at least k vertices
        facets = []
        for sub in sorted(sets, key=int.bit_count, reverse=True):
            if sub.bit_count() < k:
                break
            for g, _ in facets:
                if sub & g == sub:
                    break
            else:
                facets.append((sub, sets[sub]))
        apex_bit = ids & -ids
        apex = [points[apex_bit.bit_length() - 1][c] for c in cols]
        total = 0
        for g, (_, a, b) in facets:
            if g & apex_bit:
                continue
            j = next(j for j, v in enumerate(a) if v)
            aj = a[j]
            key = g, cols[:j] + cols[j + 1:]
            base = memo.get(key)
            if base is None:
                # G's facets are its ridges with the other facets of F
                child = []
                if k > 2:
                    for h, (mask, c, r) in facets:
                        if h != g and (h & g).bit_count() >= k - 1:
                            cj = c[j]
                            reduced = [aj * x - cj * y for x, y in zip(c, a)]
                            del reduced[j]
                            child.append((mask, reduced, aj * r - cj * b))
                base = memo[key] = faces(g, key[1], child)
            total += abs(b - sum(map(mul, a, apex))) * base // abs(aj)
        return total

    top = [(mask, coeffs, rhs * D) for mask, (coeffs, _, rhs) in zip(verts.incidence, rows) if mask]
    return Fraction(copies * faces(full, tuple(range(dim)), top), D**dim * math.factorial(dim))


# ---------------------------------------------------------------------------
# plain-text H-representation files


def parse_hrep(text: str) -> HPolytope:
    """Parse the plaintext format: first line ``dim d``, one constraint
    ``c_1 ... c_d REL rhs`` per following line, ``#`` comments ignored.
    Each token is read as an integer pair (``parse_rational``), and
    ``_canonical`` scales each row once by the lcm of its denominators."""
    dim = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if len(parts) != 2 or parts[0] != "dim":
                raise ValueError(f"line {lineno}: expected 'dim d' header")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: dimension {parts[1]!r} is not an integer") from None
            if dim < 1:
                raise ValueError(f"line {lineno}: dimension must be positive")
            continue
        if len(parts) != dim + 2:
            raise ValueError(f"line {lineno}: expected {dim} coefficients, REL, rhs")
        rel = parts[dim]
        if rel not in _RELATIONS:
            raise ValueError(f"line {lineno}: unknown relation {rel!r}")
        try:
            coeffs = [parse_rational(p) for p in parts[:dim]]
            rhs = parse_rational(parts[dim + 1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        rows.append(_canonical(coeffs, rel, rhs, dim))
    if dim is None:
        raise ValueError("missing 'dim d' header line")
    return HPolytope._from_rows(dim, rows)


def format_hrep(poly: HPolytope) -> str:
    lines = [f"dim {poly.dim}"]
    for coeffs, rel, rhs in poly.integer_rows():
        lines.append(f"{' '.join(map(str, coeffs))} {rel} {rhs}")
    return "\n".join(lines) + "\n"

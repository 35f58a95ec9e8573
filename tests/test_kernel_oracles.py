"""Independent oracles for the integer geometry kernel.

Every expected value here comes from sympy or from a closed form; none
of it runs polyvote code.  The systems and polytopes are drawn at random
by hypothesis and kept small, so vertex enumeration stays cheap."""

import itertools
import math
import operator
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

import polyvote.socialchoice as sc
from polyvote.ehrhart import (
    DEFAULT_BUDGET,
    _quasipolynomial_value,
    _series_denominator,
    count_lattice_points,
    ehrhart_pipeline,
)
from polyvote.polytope import (
    HPolytope,
    UnboundedPolytopeError,
    _basic_solutions,
    _interchangeable_classes,
    _seed_rays,
    _vertices,
    _weyl_chamber,
)

from helpers import (
    bounding_box,
    clear_geometry_memos,
    irwin_hall_cdf,
    referendum_irwin_hall,
    relint_count,
    vertex_box_count,
    vertices,
)

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
def test_seed_rays_match_sympy_inverse(system):
    # ray s is the primitive integer vector with the direction of
    # -(column s of a^-1); None exactly when a is singular
    a, _ = system
    mat = sympy.Matrix(a)
    rays = _seed_rays(a)
    if mat.det() == 0:
        assert rays is None
        return
    inverse = mat.inv()
    assert len(rays) == len(a)
    for s, ray in enumerate(rays):
        column = -inverse[:, s]
        assert math.gcd(*ray) == 1
        scale = next(r / v for r, v in zip(ray, column) if v != 0)
        assert scale > 0 and sympy.Matrix(ray) == scale * column


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.tuples(rationals, rationals), min_size=d, max_size=d)))
def test_box_volume_is_product_of_sides(bounds):
    assume(all(lo != hi for lo, hi in bounds))
    bounds = [(min(lo, hi), max(lo, hi)) for lo, hi in bounds]
    dim = len(bounds)
    rows = []
    for i, (lo, hi) in enumerate(bounds):
        e = tuple(int(i == j) for j in range(dim))
        rows += [(e, ">=", lo), (e, "<=", hi)]
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
        rows.append((coeffs, ">=", F(str((inv.row(i) * v0)[0]))))
    total = sympy.ones(1, dim) * inv
    rows.append((tuple(F(str(c)) for c in total), "<=", F(str(1 + (total * v0)[0]))))
    expected = abs(det) / sympy.factorial(dim)
    assert HPolytope(dim, rows).volume() == F(str(expected))


def _capped_district_rows(won, districts=8):
    # won districts x_i in [1/2, 1], lost ones in [0, 1/2], sum(x) <= N/2
    rows = []
    for i in range(districts):
        e = tuple(int(i == j) for j in range(districts))
        lo, hi = (F(1, 2), F(1)) if i < won else (F(0), F(1, 2))
        rows += [(e, ">=", lo), (e, "<=", hi)]
    rows.append(((1,) * districts, "<=", F(districts, 2)))
    return rows


@pytest.mark.parametrize("won, expected", [
    (5, F(4541, 10321920)), (6, F(31, 1290240)), (7, F(1, 10321920)),
])
def test_capped_district_polytope_matches_irwin_hall(won, expected):
    # with x_i = (won_i + u_i) / 2 the region is the unit cube of u cut
    # by sum(u) <= 8 - won, scaled by 2^-8
    districts = 8
    assert expected == irwin_hall_cdf(districts, districts - won) / 2**districts
    assert HPolytope(districts, _capped_district_rows(won)).volume() == expected


@pytest.mark.parametrize("districts", range(3, 16))
def test_referendum_probability_matches_irwin_hall(districts):
    assert sc.referendum_probability(districts) == referendum_irwin_hall(districts)


@st.composite
def cut_boxes(draw):
    """A box prod [l_i, u_i] with rational sides in dims 2-7, cut by one
    row w.x <= t with weights in +-1..+-5; t is sometimes w at a corner
    of the box, so that the cut runs through it."""
    dim = draw(st.integers(min_value=2, max_value=7))
    lower = [F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(dim)]
    sides = [F(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(dim)]
    weights = [draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1))) for _ in range(dim)]
    return lower, sides, weights, _draw_threshold(draw, lower, sides, weights)


def _draw_threshold(draw, lower, sides, weights):
    """t for the cut w.x <= t of the box: sometimes w at a corner of the
    box, else a point strictly inside the range of w.x over it."""
    low = sum(w * (l + (s if w < 0 else 0)) for w, l, s in zip(weights, lower, sides))
    high = sum(w * (l + (s if w > 0 else 0)) for w, l, s in zip(weights, lower, sides))
    if draw(st.booleans()):
        corner = [l + draw(st.sampled_from((0, s))) for l, s in zip(lower, sides)]
        return sum(w * x for w, x in zip(weights, corner))
    return low + (high - low) * F(draw(st.integers(1, 15)), 16)


def _cut_box(lower, sides, weights, t):
    dim = len(weights)
    rows = [(tuple(weights), "<=", t)]
    for i, (l, s) in enumerate(zip(lower, sides)):
        e = tuple(int(i == j) for j in range(dim))
        rows += [(e, ">=", l), (e, "<=", l + s)]
    return HPolytope(dim, rows)


def _cut_box_volume(lower, sides, weights, t):
    """Generalized Irwin-Hall: with z_i = x_i - l_i, reflected to
    s_i - z_i where w_i < 0, the region is the box prod [0, s_i] under
    sum |w_i| z_i <= t', and inclusion-exclusion over the sides a point
    exceeds gives sum_S (-1)^|S| (t' - sum_S |w_i| s_i)_+^d / (d! prod |w_i|)."""
    dim = len(weights)
    t -= sum(w * (l + (s if w < 0 else 0)) for w, l, s in zip(weights, lower, sides))
    steps = [abs(w) * s for w, s in zip(weights, sides)]
    total = F(0)
    for size in range(dim + 1):
        for subset in itertools.combinations(steps, size):
            rest = t - sum(subset)
            if rest > 0:
                total += (-1) ** size * rest**dim
    return total / (math.factorial(dim) * math.prod(abs(w) for w in weights))


@given(cut_boxes())
def test_cut_box_volume_matches_generalized_irwin_hall(case):
    assert _cut_box(*case).volume() == _cut_box_volume(*case)


# -- volumes of linear images of the cube and the cross-polytope -------------
#
# Each vertex of the cross-polytope |x|_1 <= 1 lies on 2^(d-1) facets,
# and the faces of the cube's image are parallelograms; the simplex, box
# and Irwin-Hall oracles above have neither.  In dimension 5 the image
# of pentagon x octahedron joins them: two of its facets, over faces of
# the octahedron that share a vertex, meet in a pentagon, so four or
# more vertices tight on two facets need not be a 3-face.


@st.composite
def linear_images(draw):
    """A nonsingular integer matrix A, entries in -3..3, in dims 2-5, and
    a rational offset t: the map x -> A x + t."""
    dim = draw(st.integers(min_value=2, max_value=5))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim))
    assume(sympy.Matrix(a).det() != 0)
    return a, draw(st.lists(rationals, min_size=dim, max_size=dim))


def _image_rows(a, offset, rows):
    """The rows c.x rel b of a polytope in x, written for y = A x + t as
    the rational rows c.A^-1.y rel b + c.A^-1.t."""
    inverse = sympy.Matrix(a).inv()
    t = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in offset])
    image = []
    for c, rel, b in rows:
        w = sympy.Matrix([c]) * inverse
        image.append((tuple(F(str(v)) for v in w), rel, F(str(b + (w * t)[0]))))
    return image


@given(linear_images())
@example(([[1, 1, 0, 0, 0], [0, 1, 2, 0, 0], [1, 0, 1, 1, 0], [0, 0, 0, 1, -1],
           [2, 0, 0, 0, 1]], [F(0)] * 5))
def test_linear_image_volume_matches_sympy_determinant(image):
    # vol(A C + t) = |det A| vol(C): the unit cube has volume 1 and the
    # cross-polytope, 2^d simplices of volume 1/d!, 2^d / d!
    a, offset = image
    dim = len(a)
    det = abs(int(sympy.Matrix(a).det()))
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    cube = [(e, rel, b) for e in units for rel, b in ((">=", 0), ("<=", 1))]
    cross = [(s, "<=", 1) for s in itertools.product((1, -1), repeat=dim)]
    assert HPolytope(dim, _image_rows(a, offset, cube)).volume() == det
    assert (HPolytope(dim, _image_rows(a, offset, cross)).volume()
            == F(det * 2**dim, math.factorial(dim)))
    if dim == 5:
        # the pentagon (0, 0), (2, 0), (3, 2), (1, 3), (-1, 2), of area 8,
        # times the octahedron |z|_1 <= 1, of volume 4/3: 30 vertices
        pentagon = [(0, 1, ">=", 0), (2, -1, "<=", 4), (1, 2, "<=", 7), (-1, 2, "<=", 5),
                    (-2, -1, "<=", 0)]
        rows = ([((x, y, 0, 0, 0), rel, b) for x, y, rel, b in pentagon]
                + [((0, 0, *s), "<=", 1) for s in itertools.product((1, -1), repeat=3)])
        assert HPolytope(5, _image_rows(a, offset, rows)).volume() == F(det * 32, 3)


# -- volumes of symmetric polytopes ------------------------------------------
#
# Volume integrates one Weyl chamber of the interchangeable coordinates
# and multiplies by the number of its copies; these polytopes have
# classes of 2-5 such coordinates, one only a joint swap, and one is
# flat.


@st.composite
def symmetric_cut_boxes(draw):
    """A cut box as in ``cut_boxes`` whose coordinates repeat a few
    (lower, side, weight) triples, the first 2-5 times and the others
    1-5 times, in dims 2-7, at shuffled positions.  Returns the case
    and the groups of positions that share a triple."""
    triples = []
    while len(triples) < 3 and sum(k for _, k in triples) < 7:
        room = 7 - sum(k for _, k in triples)
        triple = (F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                  F(draw(st.integers(1, 4)), draw(st.integers(1, 3))),
                  draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1))))
        repeats = draw(st.integers(1 if triples else 2, min(5, room)))
        triples.append((triple, repeats))
        if not draw(st.booleans()):
            break
    dim = sum(k for _, k in triples)
    positions = draw(st.permutations(range(dim)))
    coords = [None] * dim
    groups, start = [], 0
    for triple, repeats in triples:
        group = positions[start:start + repeats]
        start += repeats
        groups.append(sorted(group))
        for i in group:
            coords[i] = triple
    lower, sides, weights = (list(c) for c in zip(*coords))
    return (lower, sides, weights, _draw_threshold(draw, lower, sides, weights)), groups


@given(symmetric_cut_boxes())
def test_symmetric_cut_box_volume_matches_generalized_irwin_hall(case):
    box, groups = case
    poly = _cut_box(*box)
    classes = _interchangeable_classes(poly.integer_rows(), poly.dim)
    for group in groups:
        assert any(set(group) <= set(c) for c in classes)
    assert poly.volume() == _cut_box_volume(*box)


def _ordered(poly):
    """The polytope with every class of two or more interchangeable
    coordinates ordered, x_c(0) >= x_c(1) >= ..., keeping all its rows."""
    rows = list(poly.integer_rows())
    for cls in _interchangeable_classes(poly.integer_rows(), poly.dim):
        for a, b in zip(cls, cls[1:]):
            rows.append((tuple(-int(i == a) + int(i == b) for i in range(poly.dim)), "<=", 0))
    return HPolytope(poly.dim, rows)


@given(symmetric_cut_boxes())
def test_weyl_chamber_drops_only_implied_rows(case):
    # the chamber keeps the rows sorted along each class; each row it
    # drops holds at every vertex, and the vertices are those of the
    # polytope with all its rows and the ordering rows
    poly = _cut_box(*case[0])
    chamber, copies = _weyl_chamber(poly)
    if copies == 1:
        assert chamber is poly
        return
    dropped = set(poly.integer_rows()) - set(chamber.integer_rows())
    verts = _vertices(chamber)
    for coeffs, rel, rhs in dropped:
        assert rel == "<="
        for nums, den in verts:
            assert sum(map(operator.mul, coeffs, nums)) <= rhs * den
    full = _ordered(poly)
    assert set(chamber.integer_rows()) <= set(full.integer_rows())
    assert _vertices(chamber) == _vertices(full)


def test_weyl_chamber_prunes_permuted_rows_to_a_simplex():
    # {x >= 0, s(1, 2, 3).x <= 1 for all six permutations s}: on the
    # chamber x0 >= x1 >= x2 the row (3, 2, 1) implies the other five,
    # and x2 >= 0 the other two sign rows; the chamber is the simplex
    # 0, (1/3, 0, 0), (1/5, 1/5, 0), (1/6, 1/6, 1/6)
    rows = [(_unit(i, 3), ">=", 0) for i in range(3)]
    rows += [(perm, "<=", 1) for perm in itertools.permutations((1, 2, 3))]
    poly = HPolytope(3, rows)
    chamber, copies = _weyl_chamber(poly)
    assert copies == 6 and len(_ordered(poly).integer_rows()) == 11
    assert chamber.integer_rows() == (
        ((-1, 1, 0), "<=", 0), ((0, -1, 1), "<=", 0), ((0, 0, -1), "<=", 0),
        ((3, 2, 1), "<=", 1))
    simplex = sympy.Matrix([[F(1, 3), 0, 0], [F(1, 5), F(1, 5), 0], [F(1, 6), F(1, 6), F(1, 6)]])
    assert _vertices(chamber) == (((0, 0, 0), 1), ((1, 0, 0), 3), ((1, 1, 0), 5), ((1, 1, 1), 6))
    assert poly.volume() == F(1, 90) == copies * abs(simplex.det()) / math.factorial(3)


def test_joint_swap_gives_no_class():
    # {(u, v) in [0, 1]^2 : u + 2v <= 3/2} on (x0, x2) times the same on
    # (x1, x3): (0 1)(2 3) maps it onto itself, no transposition does;
    # the area of each factor is the integral of (3/2 - u) / 2 over
    # [0, 1], i.e. 1/2
    rows = [(_unit(i, 4), rel, b) for i in range(4) for rel, b in ((">=", 0), ("<=", 1))]
    rows += [((1, 0, 2, 0), "<=", F(3, 2)), ((0, 1, 0, 2), "<=", F(3, 2))]
    poly = HPolytope(4, rows)
    joint = HPolytope(4, [((c[1], c[0], c[3], c[2]), rel, b) for c, rel, b in rows])
    assert joint == poly
    assert _interchangeable_classes(poly.integer_rows(), 4) == [[0], [1], [2], [3]]
    assert poly.volume() == F(1, 4) == _cut_box_volume([0, 0], [1, 1], [1, 2], F(3, 2)) ** 2


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_symmetric_slice_has_volume_zero(dim):
    # the cube cut by sum(x) = dim/2: every coordinate interchangeable,
    # the chamber a nonempty flat slice
    rows = [(_unit(i, dim), rel, b) for i in range(dim) for rel, b in ((">=", 0), ("<=", 1))]
    rows.append(((1,) * dim, "=", F(dim, 2)))
    poly = HPolytope(dim, rows)
    chamber, copies = _weyl_chamber(poly)
    assert copies == math.factorial(dim) and not chamber.is_empty()
    assert poly.volume() == 0


# -- vertex enumeration against brute force ---------------------------------


def _brute_force_vertices(dim, rows):
    """Every feasible point that solves some d-subset of the rows as
    equations, deduplicated, in the order ``_vertices`` uses:
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
def degenerate_polytopes(draw, max_dim=4):
    """A box, some sides of it flat, cut by rows through its corners or
    its centre (some of them equalities), with rows repeated at other
    scales, and now and then a row no point of the box meets."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
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
    assert vertices(HPolytope(dim, rows)) == _brute_force_vertices(dim, rows)


@given(degenerate_polytopes())
def test_vertex_incidence_matches_row_evaluation(case):
    # bit v of a row's mask is set exactly when a.v == b; corners the
    # extra rows pass through are tight on more than dim rows
    poly = HPolytope(*case)
    verts = _vertices(poly)
    inequalities = [(a, b) for a, rel, b in poly.integer_rows() if rel != "="]
    assert len(verts.incidence) == len(inequalities)
    for (a, b), mask in zip(inequalities, verts.incidence):
        tight = sum(1 << v for v, (nums, den) in enumerate(verts)
                    if sum(x * y for x, y in zip(a, nums)) == b * den)
        assert mask == tight


@given(degenerate_polytopes(), st.data())
def test_double_description_ignores_row_order(case, data):
    # the seed and the cut order follow the rows' sparsity, ties broken
    # by their order; any order must give the same vertices, and zero
    # sets that name the same rows
    dim = case[0]
    rows = HPolytope(*case).integer_rows()
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = [rows[i] for i in order]

    def by_vertex(rows_in_order, row_ids):
        sols, rays, rows_at = _basic_solutions(rows_in_order, dim)
        ineq = [i for i, row in zip(row_ids, rows_in_order) if row[1] != "="]
        return {pair: {ineq[rows_at[k]] for k in range(mask.bit_length()) if mask >> k & 1}
                for pair, mask in sols}, sorted(rays)

    assert by_vertex(shuffled, order) == by_vertex(list(rows), range(len(rows)))


@st.composite
def polytope_families(draw, max_dim=4):
    """Polytopes sharing a base: the lower sides of a box and one or two
    dense rows through its corners or its centre, now and then with an
    equality through the centre.  The base alone is unbounded, so the
    cone after its cuts still has rays at t = 0.  Each sibling adds the
    box's upper sides, now and then missing one, some of up to three
    rows through corners or the centre that the family shares, some of
    them equalities, and now and then a row of its own; so siblings cut
    common prefixes and part at rows of equal density."""
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    lo = [F(draw(st.integers(-4, 2)), 2) for _ in range(dim)]
    hi = [v + F(draw(st.integers(1, 4)), 2) for v in lo]
    centre = [(a + b) / 2 for a, b in zip(lo, hi)]
    coeffs = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(tuple).filter(any)

    def through(relations):
        c = draw(coeffs)
        point = draw(st.sampled_from((
            centre, [draw(st.sampled_from((a, b))) for a, b in zip(lo, hi)])))
        return c, draw(st.sampled_from(relations)), sum(x * v for x, v in zip(c, point))

    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    base = [(e, ">=", a) for e, a in zip(units, lo)]
    base += [through(("<=", ">=")) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.integers(0, 2)) == 0:
        c = draw(coeffs)
        base.append((c, "=", sum(x * v for x, v in zip(c, centre))))
    shared = [through(("<=", ">=", "<=", ">=", "=")) for _ in range(draw(st.integers(1, 3)))]
    family = []
    for _ in range(draw(st.integers(2, 4))):
        missing = draw(st.sampled_from((None, None, None, *range(dim))))
        rows = base + [(e, "<=", b) for i, (e, b) in enumerate(zip(units, hi)) if i != missing]
        rows += [row for row in shared if draw(st.booleans())]
        rows += [through(("<=", ">=")) for _ in range(draw(st.integers(0, 1)))]
        family.append(HPolytope(dim, rows))
    return family


def _vertices_or_unbounded(poly):
    try:
        verts = _vertices(poly)
    except UnboundedPolytopeError:
        return "unbounded"
    return tuple(verts), verts.incidence


@settings(max_examples=60)
@given(polytope_families())
def test_shared_dd_states_give_the_vertices_of_a_cold_run(family):
    # a run after its siblings resumes from the states they stored; its
    # vertices and incidence must be those of a run with every memo empty
    clear_geometry_memos()
    warm = [_vertices_or_unbounded(poly) for poly in family]
    cold = []
    for poly in family:
        clear_geometry_memos()
        cold.append(_vertices_or_unbounded(poly))
    assert warm == cold


@pytest.mark.parametrize("won", [5, 6, 7])
def test_capped_district_vertices_match_brute_force(won):
    rows = _capped_district_rows(won)
    assert vertices(HPolytope(8, rows)) == _brute_force_vertices(8, rows)


def _event_polytope(lam, term):
    rule = sc.ScoringRule(lam)
    if term < 3:
        return sc.manipulability_event(rule).terms[term][1]
    return sc.participation_event(rule, sc.PARADOXES[term - 3])


@settings(max_examples=20)
@given(st.fractions(min_value=0, max_value=1, max_denominator=6), st.integers(0, 6))
def test_event_vertices_match_brute_force(lam, term):
    # the share-space polytopes of the tables: their vertices lie on
    # many more rows than dim, so double description meets pairs with a
    # common zero set that a third ray also holds
    poly = _event_polytope(lam, term)
    rows = poly.integer_rows()
    expected = _brute_force_vertices(poly.dim, rows)
    assert vertices(poly) == expected
    inequalities = [(a, b) for a, rel, b in rows if rel != "="]
    assert _vertices(poly).incidence == tuple(
        sum(1 << v for v, x in enumerate(expected) if sum(map(operator.mul, a, x)) == b)
        for a, b in inequalities)


# -- Ehrhart-Macdonald reciprocity against brute-force interior counts ----
#
# The fitted quasipolynomial at -k must be (-1)^dim(P) times the lattice
# points of the relative interior of kP.  The vertices, hence which rows
# are tight on all of P and the affine dimension, come from the sympy
# brute force above; the interior points from a scan of the box.


def _affine_dimension(vertices):
    base = vertices[0]
    diffs = [[sympy.Rational(x - y) for x, y in zip(v, base)] for v in vertices[1:]]
    return sympy.Matrix(diffs).rank() if diffs else 0


def _check_reciprocity(dim, rows):
    vertices = _brute_force_vertices(dim, rows)
    poly = HPolytope(dim, rows)
    q = ehrhart_pipeline(poly)
    sign = (-1) ** _affine_dimension(vertices)
    for k in (1, 2, 3):
        assert q.evaluate(-k) == sign * relint_count(poly, k, vertices)


def _unit(i, dim, scale=1):
    return tuple(scale * int(i == j) for j in range(dim))


RECIPROCITY_CASES = {
    # full-dimensional, with fractional vertices of both signs
    "rational box": (2, [(_unit(0, 2), ">=", F(-1, 2)), (_unit(0, 2), "<=", F(4, 3)),
                         (_unit(1, 2), ">=", F(1, 3)), (_unit(1, 2), "<=", F(2))]),
    "skew triangle": (2, [(_unit(0, 2), ">=", F(-7, 3)), (_unit(1, 2), ">=", F(1, 4)),
                          ((1, 2), "<=", F(5, 2))]),
    "cut cube": (3, [(_unit(i, 3), rel, b) for i in range(3)
                     for rel, b in ((">=", 0), ("<=", 1))] + [((1, 1, 2), "<=", F(5, 2))]),
    # = rows
    "triangle x+y+z = 1": (3, [(_unit(i, 3), ">=", 0) for i in range(3)]
                           + [((1, 1, 1), "=", 1)]),
    "hexagon x+y+z = 3/2": (3, [(_unit(i, 3), rel, b) for i in range(3)
                                for rel, b in ((">=", 0), ("<=", 1))]
                            + [((1, 1, 1), "=", F(3, 2))]),
    # pairs of opposite inequalities
    "segment x = 1/2": (2, [(_unit(0, 2), "<=", F(1, 2)), (_unit(0, 2), ">=", F(1, 2)),
                            (_unit(1, 2), ">=", 0), (_unit(1, 2), "<=", 2)]),
    "diagonal x+y = 2": (2, [((1, 1), "<=", 2), ((1, 1), ">=", 2),
                             (_unit(0, 2), ">=", 0), (_unit(1, 2), ">=", 0)]),
    # rows tight on all of P that pair with no opposite row
    "segment on the z axis": (3, [(_unit(i, 3), ">=", 0) for i in range(3)]
                              + [((1, 1, 0), "<=", 0), (_unit(2, 3), "<=", F(3, 2))]),
    # single points
    "corner point": (2, [(_unit(0, 2), ">=", 0), (_unit(1, 2), ">=", 0), ((1, 1), "<=", 0)]),
    "point (1/2, 1, 0)": (3, [(_unit(0, 3, 2), "<=", 1), (_unit(0, 3, 2), ">=", 1),
                              (_unit(1, 3), "=", 1), (_unit(2, 3), ">=", 0),
                              ((1, 0, 1), "<=", F(1, 2))]),
}


@pytest.mark.parametrize("name", RECIPROCITY_CASES)
def test_reciprocity_matches_brute_force_interior_counts(name):
    _check_reciprocity(*RECIPROCITY_CASES[name])


@given(degenerate_polytopes(max_dim=3))
def test_reciprocity_on_degenerate_polytopes(case):
    assume(_brute_force_vertices(*case))
    _check_reciprocity(*case)


# -- the Ehrhart series denominator against brute-force counts -------------
#
# D must annihilate the series of the counts f(0), f(1), ...: every
# coefficient of D times it from deg D on is 0.  Its degree is at most
# Stanley's, from the vertex denominators alone, and at least the order
# of the shortest recurrence of the counts, the rank of their Hankel
# matrix (Kronecker), which no D enters.


@st.composite
def rational_polytopes(draw):
    """A box in [0, 1]^dim, dim 1 to 3, its sides at multiples of 1/q
    for q up to 4, a quarter of them flat, cut by up to two rows through
    a corner or the centre of it, some of them equalities."""
    dim = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    lo = [draw(st.integers(0, q - 1)) for _ in range(dim)]
    hi = [v if draw(st.integers(0, 3)) == 0 else draw(st.integers(v + 1, q)) for v in lo]
    lo, hi = [F(v, q) for v in lo], [F(v, q) for v in hi]
    rows = []
    for i in range(dim):
        rows += [(_unit(i, dim), ">=", lo[i]), (_unit(i, dim), "<=", hi[i])]
    for _ in range(draw(st.integers(0, 2))):
        coeffs = tuple(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
        point = draw(st.sampled_from((
            [draw(st.sampled_from((l, h))) for l, h in zip(lo, hi)],
            [(l + h) / 2 for l, h in zip(lo, hi)],
        )))
        rel = draw(st.sampled_from(("<=", ">=", "=")))
        rows.append((coeffs, rel, sum(c * v for c, v in zip(coeffs, point))))
    return dim, rows


def _counts(dim, rows, vertices, upto):
    """f(n) for n < ``upto``, the lattice points of nP: a scan of the
    integer box of n times the vertices in every coordinate but the
    last, which takes the integer values between the bounds the rows
    leave it."""
    les = []
    for coeffs, rel, rhs in rows:
        scale = math.lcm(*(F(c).denominator for c in coeffs), F(rhs).denominator)
        a, b = [int(c * scale) for c in coeffs], int(rhs * scale)
        if rel != ">=":
            les.append((a, b))
        if rel != "<=":
            les.append(([-c for c in a], -b))
    counts = []
    for n in range(upto):
        axes = [range(math.ceil(n * min(c)), math.floor(n * max(c)) + 1) for c in zip(*vertices)]
        total = 0
        for prefix in itertools.product(*axes[:-1]):
            lo, hi = axes[-1].start, axes[-1].stop - 1
            for a, b in les:
                r = b * n - sum(x * y for x, y in zip(a, prefix))
                if a[-1] > 0:
                    hi = min(hi, r // a[-1])
                elif a[-1] < 0:
                    lo = max(lo, -(r // -a[-1]))
                elif r < 0:
                    hi = lo - 1
            total += max(0, hi - lo + 1)
        counts.append(total)
    return counts


@settings(max_examples=40, deadline=None)
@given(rational_polytopes())
def test_series_denominator_annihilates_brute_force_counts(case):
    dim, rows = case
    vertices = _brute_force_vertices(dim, rows)
    assume(vertices)
    exps = _series_denominator(((1, HPolytope(dim, rows)),))
    t = sympy.Symbol("t")
    d = sympy.Poly(sympy.cancel(sympy.prod([(1 - t**j) ** e for j, e in exps.items()])), t)
    deg = d.degree()
    assert deg == sum(j * e for j, e in exps.items())
    counts = _counts(dim, rows, vertices, deg + 40)
    product = (sympy.Poly(list(reversed(counts)), t) * d).all_coeffs()[::-1]
    assert all(c == 0 for c in product[deg:deg + 40])
    # Stanley: Phi_k divides D at most min(dim + 1, #{v : k | den v}) times
    dens = [math.lcm(*(x.denominator for x in v)) for v in vertices]
    stanley = sum(sympy.totient(k) * min(dim + 1, sum(den % k == 0 for den in dens))
                  for k in range(1, max(dens) + 1))
    assert deg <= stanley
    size = (len(counts) + 1) // 2
    hankel = DomainMatrix([[ZZ(counts[i + j]) for j in range(size)] for i in range(size)],
                          (size, size), ZZ)
    assert hankel.rank() <= deg


# -- the closure of the last two coordinates against box scans -------------
#
# Counting sums the last coordinate over the next-to-last one in closed
# form; its bounds are floors and ceilings of lines through the section.
# Rows with last coefficient +-2 or +-3 make those lines steep or shallow
# and leave many sections of a small dilation without a lattice point.


@st.composite
def slanted_polytopes(draw):
    """A box of dimension 2 or 3 cut by two or three rows through
    points of it, the first with a positive last coefficient, the second
    with a negative one, each of them 2 or 3 in size, some of the rows
    equalities."""
    dim = draw(st.integers(2, 3))
    lo = [F(draw(st.integers(-3, 1)), 2) for _ in range(dim)]
    hi = [v + F(draw(st.integers(1, 5)), 2) for v in lo]
    rows = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rows += [(e, ">=", lo[i]), (e, "<=", hi[i])]
    signs = [1, -1] + draw(st.lists(st.sampled_from((1, -1)), max_size=1))
    for sign in signs:
        coeffs = tuple(draw(st.lists(st.integers(-3, 3), min_size=dim - 1, max_size=dim - 1)))
        coeffs += (sign * draw(st.sampled_from((2, 3))),)
        point = [l + (h - l) * F(draw(st.integers(0, 4)), 4) for l, h in zip(lo, hi)]
        rel = draw(st.sampled_from(("<=", ">=", "=")))
        rows.append((coeffs, rel, sum(c * v for c, v in zip(coeffs, point))))
    return dim, rows


@given(slanted_polytopes())
def test_counts_through_the_closure_match_a_box_scan(case):
    vertices = _brute_force_vertices(*case)
    assume(vertices)
    poly = HPolytope(*case)
    for n in (1, 2, 3, 5):
        assert count_lattice_points(poly, n) == vertex_box_count(poly, n, vertices)


@given(slanted_polytopes())
def test_interior_counts_through_the_closure_match_a_box_scan(case):
    # the strict rows a.x <= b.k - 1 of the relative interior of kP
    vertices = _brute_force_vertices(*case)
    assume(vertices)
    poly = HPolytope(*case)
    sign = (-1) ** _affine_dimension(vertices)
    for k in (1, 2, 3):
        assert (_quasipolynomial_value(poly, -k, DEFAULT_BUDGET)
                == sign * relint_count(poly, k, vertices))


@given(rational_polytopes(), st.lists(st.integers(-3, 5), min_size=1, max_size=4))
def test_memoized_counts_match_a_box_scan(case, dilations):
    # each value is counted twice, and both counts equal the box scan
    vertices = _brute_force_vertices(*case)
    assume(vertices)
    poly = HPolytope(*case)
    sign = (-1) ** _affine_dimension(vertices)
    for n in dilations:
        want = (vertex_box_count(poly, n, vertices) if n >= 0
                else sign * relint_count(poly, -n, vertices))
        first = _quasipolynomial_value(poly, n, DEFAULT_BUDGET)
        again = _quasipolynomial_value(poly, n, DEFAULT_BUDGET)
        assert first == again == want


# -- emptiness and boundedness against Fourier-Motzkin elimination ---------
#
# sympy's exact simplex (sympy.solvers.simplex.lpmin/lpmax, 1.14) is no
# oracle here: on x + y = 0 with x + y = 1 it raises UnboundedLPError for
# max x and returns the point (1, 0) for max 0, and it returns points
# outside systems of parallel equalities even after a slack relaxation.


@st.composite
def cone_cases(draw):
    """Row systems in dims 2-5 whose emptiness or boundedness the
    double-description cone must decide: rows of rank
    below dim, lines in a sheared direction, inconsistent equalities,
    a strip along the diagonal open on one side, and polytopes only
    coupled rows close; each with up to three random rows added."""
    dim = draw(st.integers(min_value=2, max_value=5))
    kind = draw(st.sampled_from(("rank", "line", "inconsistent", "strip", "coupled")))
    ints = st.integers(-3, 3)
    vector = st.lists(ints, min_size=dim, max_size=dim).map(tuple)
    rhs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    relation = st.sampled_from(("<=", ">=", "="))
    rows = []
    if kind == "rank":
        basis = draw(st.lists(vector, min_size=1, max_size=dim - 1))
        for _ in range(draw(st.integers(1, 6))):
            w = draw(st.lists(ints, min_size=len(basis), max_size=len(basis)))
            coeffs = tuple(sum(a * b[j] for a, b in zip(w, basis)) for j in range(dim))
            rows.append((coeffs, draw(relation), draw(rhs)))
    elif kind == "line":
        # a box on x_0..x_(d-2), sheared along (shift, 1)
        shift = draw(st.lists(ints, min_size=dim - 1, max_size=dim - 1))
        for i in range(dim - 1):
            e = [int(i == j) for j in range(dim - 1)]
            lo = draw(rhs)
            for sign, bound in ((1, lo + draw(st.integers(0, 2))), (-1, -lo)):
                coeffs = [sign * v for v in e]
                coeffs.append(-sum(c * s for c, s in zip(coeffs, shift)))
                rows.append((tuple(coeffs), "<=", bound))
    elif kind == "inconsistent":
        coeffs = draw(vector.filter(any))
        b = draw(rhs)
        k = draw(st.sampled_from((1, 2, -1)))
        rows += [(coeffs, "=", b), (tuple(k * c for c in coeffs), "=", k * b + 1)]
    else:
        # |x_i - x_(i+1)| <= c: a strip along the diagonal, cut by
        # sum(x) >= c, and closed by sum(x) <= c for "coupled"
        for i in range(dim - 1):
            for sign in (1, -1):
                coeffs = [0] * dim
                coeffs[i], coeffs[i + 1] = sign, -sign
                rows.append((tuple(coeffs), "<=", draw(rhs) + 2))
        rows.append(((1,) * dim, ">=", draw(rhs)))
        if kind == "coupled":
            rows.append(((1,) * dim, "<=", draw(rhs) + 3))
    for _ in range(draw(st.integers(0, 3))):
        rows.append((draw(vector.filter(any)), draw(relation), draw(rhs)))
    return dim, rows


def _coordinate_range(dim, rows, keep):
    """(min, max) of coordinate ``keep`` over the rows (coeffs, rel, rhs),
    with None for a side that is unbounded, or None when they have no
    common point.

    Every other coordinate is eliminated in ``Fraction`` arithmetic: by
    substitution through an equality that involves it, else by
    Fourier-Motzkin, the coordinate with the fewest new rows first.
    Each inequality carries the set of input rows it was combined from;
    after k Fourier-Motzkin steps a row from more than k + 1 of them is
    implied by the others and is dropped (Chernikov's rule)."""
    eqs, les = [], []
    for i, (a, rel, b) in enumerate(rows):
        a, b = [F(c) for c in a], F(b)
        if rel == ">=":
            a, b = [-c for c in a], -b
        if rel == "=":
            eqs.append((a, b))
        else:
            les.append((a, b, frozenset([i])))
    free = [j for j in range(dim) if j != keep]
    while eqs:
        a, b = eqs.pop()
        j = next((j for j in free if a[j]), None)
        if j is None:
            if not any(a):
                if b:
                    return None
                continue
            les += [(a, b, frozenset()), ([-v for v in a], -b, frozenset())]
            continue
        free.remove(j)

        def sub(c, d):
            f = c[j] / a[j]
            return [x - f * y for x, y in zip(c, a)], d - f * b
        eqs = [sub(c, d) for c, d in eqs]
        les = [(*sub(c, d), h) for c, d, h in les]
    steps = 0
    while free:
        j = min(free, key=lambda j: sum(c[j] > 0 for c, _, _ in les)
                * sum(c[j] < 0 for c, _, _ in les))
        free.remove(j)
        steps += 1
        pos = [r for r in les if r[0][j] > 0]
        neg = [r for r in les if r[0][j] < 0]
        les = [r for r in les if r[0][j] == 0]
        for cp, dp, hp in pos:
            for cn, dn, hn in neg:
                h = hp | hn
                if len(h) > steps + 1:
                    continue
                s, t = -cn[j], cp[j]
                les.append(([s * x + t * y for x, y in zip(cp, cn)], s * dp + t * dn, h))
    lo, hi = None, None
    for c, d, _ in les:
        if not c[keep]:
            if d < 0:
                return None
        elif c[keep] > 0:
            hi = d / c[keep] if hi is None else min(hi, d / c[keep])
        else:
            lo = d / c[keep] if lo is None else max(lo, d / c[keep])
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _elimination_outcome(dim, rows):
    """"empty", "unbounded" or the (min, max) of every coordinate, from
    :func:`_coordinate_range`."""
    ranges = [_coordinate_range(dim, rows, i) for i in range(dim)]
    if None in ranges:
        return "empty"
    if any(None in r for r in ranges):
        return "unbounded"
    return tuple(lo for lo, _ in ranges), tuple(hi for _, hi in ranges)


def _vertex_outcome(poly):
    try:
        if poly.is_empty():
            return "empty"
    except UnboundedPolytopeError:
        return "unbounded"
    return bounding_box(poly)


# rank-deficient systems with coefficients near 10^6: in R^4, rows of
# rank 2 that only a combination of two of them shows empty; in R^5,
# rows of rank 3 that leave a plane of lines
_U4 = (1000003, -999983, 999979, 1000033)
_V4 = (999961, 1000037, -1000039, 999953)
_U5 = (1000003, -999983, 999979, 1000033, -1000037)
_V5 = (999961, 1000037, -1000039, 999953, 999931)
_W5 = (-1000081, 999907, 1000099, -999883, 1000117)


@settings(max_examples=200)
@given(cone_cases())
@example((4, [(_U4, "<=", 1), (_V4, "<=", 1), (tuple(map(sum, zip(_U4, _V4))), ">=", 3),
              (tuple(a - b for a, b in zip(_U4, _V4)), "=", 999999)]))
@example((5, [(_U5, "<=", 10**6), (_U5, ">=", -10**6), (_V5, "=", 999999), (_W5, "<=", 3),
              (tuple(a - b for a, b in zip(_U5, _W5)), ">=", -2 * 10**6)]))
def test_emptiness_and_boundedness_match_fourier_motzkin(case):
    dim, rows = case
    assert _vertex_outcome(HPolytope(dim, rows)) == _elimination_outcome(dim, rows)

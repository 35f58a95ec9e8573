from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyvote import polytope
from polyvote.linalg import DimensionError
from polyvote.polytope import (
    EventRegion,
    GeometryError,
    HalfSpace,
    HPolytope,
    UnboundedPolytopeError,
    format_hrep,
    parse_hrep,
)
from polyvote.socialchoice import referendum_district_polytope

from helpers import contains, eliminate_over_fractions


def ge(coeffs, rhs=0):
    return HalfSpace(tuple(F(c) for c in coeffs), ">=", F(rhs))


def le(coeffs, rhs):
    return HalfSpace(tuple(F(c) for c in coeffs), "<=", F(rhs))


def eq(coeffs, rhs):
    return HalfSpace(tuple(F(c) for c in coeffs), "=", F(rhs))


def unit_box(dim):
    rows = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rows.append(ge(e))
        rows.append(le(e, 1))
    return HPolytope(dim, rows)


def standard_simplex(dim):
    rows = [ge(tuple(int(i == j) for j in range(dim))) for i in range(dim)]
    rows.append(le((1,) * dim, 1))
    return HPolytope(dim, rows)


def test_constraints_normalize_to_coprime_integers():
    p = HPolytope(2, [le((F(2, 3), F(4, 3)), F(2))])
    (c,) = p.constraints
    assert c.coeffs == (1, 2) and c.rhs == 3 and c.rel == "<="


def test_polytopes_compare_and_hash_by_integer_rows():
    p = HPolytope(2, [le((F(2, 3), F(4, 3)), F(2)), ge((1, 0)), ge((1, 0))])
    q = HPolytope(2, [le((-2, 0), 0), le((1, 2), 3)])
    assert p == q and hash(p) == hash(q)
    assert p.integer_rows() == q.integer_rows() == (((-1, 0), "<=", 0), ((1, 2), "<=", 3))
    assert p != HPolytope(2, [le((1, 2), 3)])


def test_ge_rows_store_as_le():
    p = HPolytope(2, [ge((1, 1), 1)])
    (c,) = p.constraints
    assert c.rel == "<=" and c.coeffs == (-1, -1) and c.rhs == -1


def test_vacuous_rows_dropped_and_false_rows_kept():
    p = HPolytope(2, [le((0, 0), 5), ge((1, 0))])
    assert len(p.constraints) == 1
    empty = HPolytope(2, [le((0, 0), -3)])
    assert empty.has_false_row()
    assert empty.volume() == 0
    assert empty.is_empty()


def test_intersect_idempotent():
    p = standard_simplex(3)
    assert p.intersect(p) == p


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionError):
        standard_simplex(2).intersect(standard_simplex(3))


def test_cube_meets_facet_plane_has_volume_zero():
    slab = unit_box(3).intersect(HPolytope(3, [ge((1, 0, 0), 1)]))
    assert not slab.is_empty()
    assert slab.volume() == 0


def test_eliminate_share_simplex_gives_standard_inequalities():
    rows = [eq((1,) * 6, 1)] + [ge(tuple(int(i == j) for j in range(6))) for i in range(6)]
    reduced = HPolytope(6, rows).eliminate_equality(5)
    expected = standard_simplex(5)
    assert reduced == expected


def test_eliminate_equality_to_segment():
    p = HPolytope(2, [eq((1, 1), 1), ge((1, 0)), ge((0, 1))])
    seg = p.eliminate_equality(1)
    assert seg.dim == 1
    verts = sorted(seg.enumerate_vertices().vertices)
    assert verts == [(0,), (1,)]


@st.composite
def rows_with_equality(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    j = draw(st.integers(min_value=0, max_value=dim - 1))
    ints = st.integers(min_value=-3, max_value=3)
    rhs = st.builds(F, ints, st.integers(min_value=1, max_value=3))
    coeffs = st.lists(ints, min_size=dim, max_size=dim).map(tuple)
    pivot = draw(coeffs.filter(lambda c: c[j] != 0))
    rows = [HalfSpace(pivot, "=", draw(rhs))]
    rows += draw(st.lists(st.builds(HalfSpace, coeffs, st.sampled_from(("<=", ">=", "=")),
                                    rhs), max_size=6))
    return HPolytope(dim, rows), j


@given(rows_with_equality())
def test_eliminate_equality_matches_fraction_substitution(case):
    poly, j = case
    reduced = poly.eliminate_equality(j)
    expected = eliminate_over_fractions(poly, j)
    assert reduced.integer_rows() == expected.integer_rows()
    assert reduced.constraints == expected.constraints


def test_eliminate_equality_requires_equality():
    with pytest.raises(GeometryError):
        standard_simplex(2).eliminate_equality(0)


def test_unit_square_vertices():
    verts = sorted(unit_box(2).enumerate_vertices().vertices)
    assert verts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_standard_simplex_vertices():
    v = standard_simplex(5).enumerate_vertices()
    assert len(v) == 6
    assert v.denominator_lcm() == 1


def test_vertices_satisfy_constraints_with_d_tight():
    p = standard_simplex(4).intersect(HPolytope(4, [le((1, 1, 0, 0), F(1, 2))]))
    rows = p.integer_rows()
    for vert in p.enumerate_vertices().vertices:
        assert contains(p, vert)
        tight = sum(
            1
            for coeffs, rel, rhs in rows
            if sum(a * x for a, x in zip(coeffs, vert)) == rhs
        )
        assert tight >= 4


def vertex_path(poly):
    """"full rank" when the rows have rank dim and the double-description
    cone decides emptiness and boundedness by itself, "guard box" when
    vertex enumeration has to cut the rows by the Hadamard box."""
    boxed = []
    real = polytope._hadamard_box
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_hadamard_box",
                   lambda rows, dim: boxed.append(dim) or real(rows, dim))
        try:
            polytope._vertices.__wrapped__(poly)
        except UnboundedPolytopeError:
            pass
    return "guard box" if boxed else "full rank"


def test_unbounded_raises():
    with pytest.raises(UnboundedPolytopeError):
        HPolytope(2, [ge((1, 0)), ge((0, 1))]).enumerate_vertices()
    with pytest.raises(UnboundedPolytopeError):
        HPolytope(2, [eq((1, -1), 0)]).enumerate_vertices()


def test_diamond_needs_no_axis_bounds():
    # no single-coordinate bounds: the coupled rows alone close it
    diamond = HPolytope(
        2, [le((1, 1), 1), le((1, -1), 1), le((-1, 1), 1), le((-1, -1), 1)]
    )
    assert len(diamond.enumerate_vertices()) == 4
    assert diamond.volume() == 2


def test_empty_with_free_direction_is_empty_not_unbounded():
    # rank 1 in the plane: the guard box tells empty from a line
    p = HPolytope(2, [ge((1, 0), 2), le((1, 0), 1)])
    assert vertex_path(p) == "guard box"
    assert p.enumerate_vertices().vertices == ()
    assert p.volume() == 0


def test_bounded_without_axis_bounds():
    # every row couples two coordinates; the cone has no ray at t = 0
    diamond = HPolytope(
        2, [le((1, 1), 1), le((1, -1), 1), le((-1, 1), 1), le((-1, -1), 1)]
    )
    assert vertex_path(diamond) == "full rank"
    assert diamond.enumerate_vertices().vertices == ((-1, 0), (0, -1), (0, 1), (1, 0))
    # a hexagon in the plane sum(x) = 0 cut by |x_i - x_j| <= 1
    rows = [eq((1, 1, 1), 0)]
    for i in range(3):
        for j in range(3):
            if i != j:
                rows.append(le(tuple((k == i) - (k == j) for k in range(3)), 1))
    hexagon = HPolytope(3, rows)
    assert vertex_path(hexagon) == "full rank"
    assert hexagon.enumerate_vertices().vertices == tuple(
        tuple(F(v, 3) for v in nums)
        for nums in [(-2, 1, 1), (-1, -1, 2), (-1, 2, -1),
                     (1, -2, 1), (1, 1, -2), (2, -1, -1)]
    )
    assert hexagon.volume() == 0


def test_unbounded_along_one_ray_has_a_cone_ray_at_t0():
    # a strip |x - y| <= 1 closed below by x + y >= 0, open along (1, 1)
    strip = HPolytope(2, [le((1, -1), 1), le((-1, 1), 1), ge((1, 1), 0)])
    # a slab on the plane x + y + z = 1, open along (-1, -1, 2)
    sloped = HPolytope(3, [eq((1, 1, 1), 1), le((1, -1, 0), 1), le((-1, 1, 0), 1),
                           ge((0, 0, 1), 0)])
    for poly in (strip, sloped):
        assert vertex_path(poly) == "full rank"
        with pytest.raises(UnboundedPolytopeError):
            poly.enumerate_vertices()
        with pytest.raises(UnboundedPolytopeError):
            poly.volume()


def test_inconsistent_equalities_are_empty():
    # parallel equalities (rank 1 in the plane: guard box), three
    # equalities in the plane with no common point (rank 2: the seed
    # equalities force t = 0), and parallel equalities with a free
    # direction besides (rank 2 in space: guard box)
    parallel = HPolytope(2, [eq((1, 1), 1), eq((1, 1), 2)])
    overdetermined = HPolytope(2, [eq((1, 1), 1), eq((1, -1), 0), eq((1, 2), 5)])
    with_rays = HPolytope(3, [eq((1, 1, 0), 1), eq((2, 2, 0), 3), ge((0, 0, 1), 0)])
    paths = {parallel: "guard box", overdetermined: "full rank", with_rays: "guard box"}
    for poly, path in paths.items():
        assert vertex_path(poly) == path
        assert poly.enumerate_vertices().vertices == ()
        assert poly.is_empty()
        assert poly.volume() == 0


def test_volume_unit_cube():
    for dim in (1, 2, 3, 4):
        assert unit_box(dim).volume() == 1


def test_volume_standard_simplex():
    assert standard_simplex(5).volume() == F(1, 120)


def test_volume_memo_is_keyed_on_the_rows():
    meet = standard_simplex(3).intersect(HPolytope(3, [le((1, 1, 0), F(1, 2))]))
    same = HPolytope._from_rows(3, reversed(meet.integer_rows()))
    polytope._volume.cache_clear()
    assert meet.volume() == F(1, 12)
    assert same is not meet and same.volume() == F(1, 12)
    info = polytope._volume.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_volume_enumerates_only_the_weyl_chamber():
    # S_7 x S_6 permutes the won and the lost districts; volume takes the
    # vertices of the chamber x_0 >= ... >= x_6, x_7 >= ... >= x_12 alone
    district = referendum_district_polytope(13, 7)
    polytope._volume.cache_clear()
    polytope._vertices.cache_clear()
    district.volume()
    info = polytope._vertices.cache_info()
    assert info.currsize == 1
    chamber, copies = polytope._weyl_chamber(district)
    assert copies == factorial(7) * factorial(6)
    assert len(polytope._vertices(chamber)) == 119
    assert polytope._vertices.cache_info().misses == info.misses
    full = len(polytope._vertices(district))
    assert polytope._vertices.cache_info().misses == info.misses + 1
    assert full == 4096 and 119 * 30 < full


def test_volume_split_cube_halves():
    cube = unit_box(3)
    lower = cube.intersect(HPolytope(3, [le((1, 0, 0), F(1, 2))]))
    upper = cube.intersect(HPolytope(3, [ge((1, 0, 0), F(1, 2))]))
    assert lower.volume() + upper.volume() == 1


def test_volume_invariant_under_coordinate_permutation():
    p = standard_simplex(3).intersect(HPolytope(3, [le((2, 1, 0), 1)]))
    swapped = HPolytope(
        3,
        [
            HalfSpace((c.coeffs[1], c.coeffs[2], c.coeffs[0]), c.rel, c.rhs)
            for c in p.constraints
        ],
    )
    assert p.volume() == swapped.volume()


def test_contains():
    simplex = standard_simplex(5)
    assert contains(simplex, (F(1, 6),) * 5)
    assert not contains(simplex, (2, 0, 0, 0, 0))
    with pytest.raises(DimensionError):
        contains(simplex, (0, 0))


def test_vertex_denominator_lcm_requires_vertices():
    empty = HPolytope(2, [le((0, 0), -1)])
    with pytest.raises(GeometryError):
        empty.enumerate_vertices().denominator_lcm()


def test_region_volume_single_term_and_cancellation():
    p = unit_box(2)
    assert EventRegion.of(p).volume() == 1
    assert EventRegion(((1, p), (-1, p))).volume() == 0


def test_region_validation():
    p = unit_box(2)
    with pytest.raises(ValueError):
        EventRegion(((2, p),))
    with pytest.raises(DimensionError):
        EventRegion(((1, p), (1, unit_box(3))))
    surplus = EventRegion(((1, standard_simplex(2)), (-1, unit_box(2))))
    with pytest.raises(GeometryError):
        surplus.volume()


def test_region_intersect_distributes():
    cube = unit_box(2)
    half = cube.intersect(HPolytope(2, [le((1, 0), F(1, 2))]))
    region = EventRegion(((1, cube), (-1, half)))
    meet = region.intersect(EventRegion.of(cube))
    assert meet.volume() == F(1, 2)


HREP_TEXT = """\
# toy square
dim 2
1 0 >= 0
0 1 >= 0
1 0 <= 1
0 1 <= 1
"""


def test_parse_hrep_and_round_trip():
    p = parse_hrep(HREP_TEXT)
    assert p == unit_box(2)
    assert parse_hrep(format_hrep(p)) == p


def test_parse_hrep_errors():
    with pytest.raises(ValueError):
        parse_hrep("1 0 <= 1\n")  # missing header
    with pytest.raises(ValueError):
        parse_hrep("dim 2\n1 0 < 1\n")  # bad relation
    with pytest.raises(ValueError):
        parse_hrep("dim 2\n1 0 1 <= 1\n")  # wrong arity
    with pytest.raises(ValueError):
        parse_hrep("dim 2\n1 0.5 <= 1\n")  # not a rational literal

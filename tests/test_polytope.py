import copy
import importlib
import json
import pickle
import pkgutil
from collections import OrderedDict
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

import polyvote
from polyvote import cli, polytope
from polyvote.ehrhart import ehrhart_pipeline, period_bound, region_count
from polyvote.linalg import DimensionError
from polyvote.polytope import (
    EventRegion,
    GeometryError,
    HPolytope,
    UnboundedPolytopeError,
    format_hrep,
    parse_hrep,
)
from polyvote.socialchoice import (
    BORDA,
    PLURALITY,
    manipulability_event,
    participation_event,
    probability_for_spec,
    referendum_district_polytope,
    share_space_polytope,
)

from helpers import (
    clear_event_memos,
    clear_geometry_memos,
    contains,
    event_memos,
    geometry_memos,
    vertices,
)


def ge(coeffs, rhs=0):
    return tuple(coeffs), ">=", rhs


def le(coeffs, rhs):
    return tuple(coeffs), "<=", rhs


def eq(coeffs, rhs):
    return tuple(coeffs), "=", rhs


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
    assert p.integer_rows() == (((1, 2), "<=", 3),)


def test_polytopes_compare_and_hash_by_integer_rows():
    p = HPolytope(2, [le((F(2, 3), F(4, 3)), F(2)), ge((1, 0)), ge((1, 0))])
    q = HPolytope(2, [le((-2, 0), 0), le((1, 2), 3)])
    assert p == q and hash(p) == hash(q)
    assert p.integer_rows() == q.integer_rows() == (((-1, 0), "<=", 0), ((1, 2), "<=", 3))
    assert p != HPolytope(2, [le((1, 2), 3)])


def test_equal_polytopes_share_one_memo_entry_and_are_immutable():
    box = unit_box(2)
    copies = (HPolytope._from_rows(2, reversed(box.integer_rows())), parse_hrep(HREP_TEXT))
    for other in copies:
        assert other is not box and other == box and hash(other) == hash(box)
    polytope._vertices.cache_clear()
    for poly in (box,) + copies:
        polytope._vertices(poly)
    info = polytope._vertices.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for field, value in (("dim", 3), ("_rows", ())):
        with pytest.raises(AttributeError):
            setattr(box, field, value)
        with pytest.raises(AttributeError):
            delattr(box, field)
    assert repr(box) == f"HPolytope(dim=2, _rows={box.integer_rows()!r})"


@pytest.mark.parametrize("rebuild", [
    copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p)),
], ids=["copy", "deepcopy", "pickle"])
def test_polytopes_survive_copy_and_pickle(rebuild):
    # the default reduce would set the slots through the blocked __setattr__
    for poly in (unit_box(3), share_space_polytope([]), HPolytope(2, [le((0, 0), -1)])):
        other = rebuild(poly)
        assert other == poly and hash(other) == hash(poly)
        assert other.integer_rows() == poly.integer_rows() and other.volume() == poly.volume()


def test_ge_rows_store_as_le():
    p = HPolytope(2, [ge((1, 1), 1)])
    assert p.integer_rows() == (((-1, -1), "<=", -1),)


def test_bad_relation_rejected():
    for rel in ("<", "==", "=>"):
        with pytest.raises(ValueError, match="relation"):
            HPolytope(2, [((1, 0), rel, 1)])


def test_vacuous_rows_dropped_and_false_rows_kept():
    p = HPolytope(2, [le((0, 0), 5), ge((1, 0))])
    assert len(p.integer_rows()) == 1
    empty = HPolytope(2, [le((0, 0), -3)])
    assert empty.has_false_row()
    assert empty.volume() == 0
    assert empty.is_empty()


def test_intersect_idempotent():
    p = standard_simplex(3)
    assert p.intersect(p) == p
    # a meet holds the stored rows of both sides, as if built from them
    q = HPolytope(3, [le((2, 1, 0), F(1, 2))])
    assert p.intersect(q) == HPolytope(3, p.integer_rows() + q.integer_rows())


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionError):
        standard_simplex(2).intersect(standard_simplex(3))


def test_cube_meets_facet_plane_has_volume_zero():
    slab = unit_box(3).intersect(HPolytope(3, [ge((1, 0, 0), 1)]))
    assert not slab.is_empty()
    assert slab.volume() == 0


def test_eliminate_share_simplex_gives_standard_inequalities():
    # substituting x_6 = 1 - (x_1 + ... + x_5) into x >= 0 on R^6
    assert share_space_polytope([]) == standard_simplex(5)


def test_unit_square_vertices():
    verts = sorted(vertices(unit_box(2)))
    assert verts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_standard_simplex_vertices():
    simplex = standard_simplex(5)
    assert len(vertices(simplex)) == 6
    assert period_bound(simplex) == 1


def test_vertices_satisfy_constraints_with_d_tight():
    p = standard_simplex(4).intersect(HPolytope(4, [le((1, 1, 0, 0), F(1, 2))]))
    rows = p.integer_rows()
    for vert in vertices(p):
        assert contains(p, vert)
        tight = sum(
            1
            for coeffs, rel, rhs in rows
            if sum(a * x for a, x in zip(coeffs, vert)) == rhs
        )
        assert tight >= 4


def vertex_path(poly):
    """"one run" when one double-description run decides emptiness and
    boundedness by itself: the rows have rank dim, or the seed finds the
    equalities inconsistent.  "pinned" when the seed finds the rows of
    rank below dim and a second run, on the rows and unit rows x_j = 0,
    tells empty from a line."""
    runs = []
    real = polytope._basic_solutions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_basic_solutions",
                   lambda rows, dim: runs.append(rows) or real(rows, dim))
        try:
            polytope._vertices.__wrapped__(poly)
        except UnboundedPolytopeError:
            pass
    if len(runs) == 1:
        return "one run"
    first, second = runs
    units = {tuple(int(i == j) for j in range(poly.dim)) for i in range(poly.dim)}
    assert tuple(second[:len(first)]) == tuple(first)
    assert all(coeffs in units and rel == "=" and rhs == 0
               for coeffs, rel, rhs in second[len(first):])
    return "pinned"


def test_unbounded_raises():
    with pytest.raises(UnboundedPolytopeError):
        vertices(HPolytope(2, [ge((1, 0)), ge((0, 1))]))
    # rank 1 in the plane: pinning x_0 = 0 leaves the vertex (0, 0)
    line = HPolytope(2, [eq((1, -1), 0)])
    assert vertex_path(line) == "pinned"
    with pytest.raises(UnboundedPolytopeError):
        vertices(line)


def test_diamond_needs_no_axis_bounds():
    # no single-coordinate bounds: the coupled rows alone close it
    diamond = HPolytope(
        2, [le((1, 1), 1), le((1, -1), 1), le((-1, 1), 1), le((-1, -1), 1)]
    )
    assert len(vertices(diamond)) == 4
    assert diamond.volume() == 2


def test_empty_with_free_direction_is_empty_not_unbounded():
    # rank 1 in the plane: pinning x_1 = 0 tells empty from a line
    p = HPolytope(2, [ge((1, 0), 2), le((1, 0), 1)])
    assert vertex_path(p) == "pinned"
    assert vertices(p) == ()
    assert p.volume() == 0


def test_bounded_without_axis_bounds():
    # every row couples two coordinates; the cone has no ray at t = 0
    diamond = HPolytope(
        2, [le((1, 1), 1), le((1, -1), 1), le((-1, 1), 1), le((-1, -1), 1)]
    )
    assert vertex_path(diamond) == "one run"
    assert vertices(diamond) == ((-1, 0), (0, -1), (0, 1), (1, 0))
    # a hexagon in the plane sum(x) = 0 cut by |x_i - x_j| <= 1
    rows = [eq((1, 1, 1), 0)]
    for i in range(3):
        for j in range(3):
            if i != j:
                rows.append(le(tuple((k == i) - (k == j) for k in range(3)), 1))
    hexagon = HPolytope(3, rows)
    assert vertex_path(hexagon) == "one run"
    assert vertices(hexagon) == tuple(
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
        assert vertex_path(poly) == "one run"
        with pytest.raises(UnboundedPolytopeError):
            vertices(poly)
        with pytest.raises(UnboundedPolytopeError):
            poly.volume()


def test_inconsistent_equalities_are_empty():
    # parallel equalities, three equalities in the plane with no common
    # point, and parallel equalities with a free direction besides: in
    # each the seed equalities force t = 0, whatever the rank of the rows
    parallel = HPolytope(2, [eq((1, 1), 1), eq((1, 1), 2)])
    overdetermined = HPolytope(2, [eq((1, 1), 1), eq((1, -1), 0), eq((1, 2), 5)])
    with_rays = HPolytope(3, [eq((1, 1, 0), 1), eq((2, 2, 0), 3), ge((0, 0, 1), 0)])
    for poly in (parallel, overdetermined, with_rays):
        assert vertex_path(poly) == "one run"
        assert vertices(poly) == ()
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


def _incidence(poly):
    verts = polytope._vertices(poly)
    return tuple(verts), verts.incidence


def _dd_work():
    """(hits, misses) of the seed cones and of the cuts made since the
    memos were cleared."""
    return tuple((info.hits, info.misses) for info in
                 (polytope._seed_state.cache_info(), polytope._cut.cache_info()))


def test_dd_resumes_after_the_cuts_another_polytope_made():
    # NAP has PPP's 11 rows and one more, of 4 nonzeros; both cut their
    # three rows of 5 nonzeros and one of 4 first, from the same seed
    ppp, nap = participation_event(BORDA, "PPP"), participation_event(BORDA, "NAP")
    clear_geometry_memos()
    cold = _incidence(nap)
    clear_geometry_memos()
    _incidence(ppp)
    assert _dd_work() == ((0, 1), (0, 6))  # the seed and six cuts, made
    assert _incidence(nap) == cold
    # NAP reads the seed and the four shared cuts, then makes three of its own
    assert _dd_work() == ((1, 1), (4, 9))
    assert polytope._cut.cache_info().currsize == 9


def test_dd_state_memo_keeps_the_most_recently_used_states():
    # every segment 0 <= x <= k shares the seed {t >= 0, x >= 0} and
    # cuts one row of its own, so each run reads the seed and makes a cut
    clear_geometry_memos()
    limit = polytope._cut.cache_parameters()["maxsize"]
    assert limit == 4096
    for k in range(1, limit + 2):
        polytope._vertices(HPolytope(1, [ge((1,)), le((1,), k)]))
        assert polytope._cut.cache_info().currsize <= limit
    assert _dd_work() == ((limit, 1), (0, limit + 1))
    # the seed, made first and read by every run, stays; the oldest cut
    # (k = 1) left, the newest (k = limit + 1) is held
    polytope._vertices.cache_clear()
    assert vertices(HPolytope(1, [ge((1,)), le((1,), limit + 1)])) == ((F(0),), (F(limit + 1),))
    assert _dd_work() == ((limit + 1, 1), (1, limit + 1))
    # an evicted cut is made again, with the same vertices
    assert vertices(HPolytope(1, [ge((1,)), le((1,), 1)])) == ((F(0),), (F(1),))
    assert _dd_work() == ((limit + 2, 1), (1, limit + 2))
    assert polytope._cut.cache_info().currsize == limit


def test_every_memo_is_an_lru_cache_of_4096_entries():
    # the kernel's and the event layer's memos are functools.lru_cache
    # wrappers, which count their hits and misses and keep the most
    # recently used entries; no module holds a container memo beside them
    memos = geometry_memos() + event_memos()
    assert {fn.__name__ for fn in memos} == {
        "_vertices", "_volume", "_seed_state", "_cut", "_count_plan", "_series_denominator",
        "_series", "_evaluate", "conjunction"}
    assert {fn.__module__ for fn in memos} == {
        "polyvote.polytope", "polyvote.ehrhart", "polyvote.socialchoice"}
    assert all(fn.cache_parameters()["maxsize"] == 4096 for fn in memos)
    modules = [importlib.import_module(f"polyvote.{m.name}")
               for m in pkgutil.iter_modules(polyvote.__path__)]
    containers = {(m.__name__, name): value for m in modules
                  for name, value in vars(m).items()
                  if not name.startswith("__") and isinstance(value, (dict, list, set))}
    assert not any(isinstance(v, OrderedDict) for v in containers.values())
    sizes = {key: len(value) for key, value in containers.items()}
    # work through every layer: none of those containers grows
    clear_geometry_memos()
    clear_event_memos()
    for spec in ("condorcet-loser:borda", "referendum:N=5", "manipulable:plurality"):
        probability_for_spec(spec)
    region = manipulability_event(PLURALITY)
    ehrhart_pipeline(region, classes=[0])
    region_count(region, 30)
    assert {key: len(value) for key, value in containers.items()} == sizes
    assert all(fn.cache_info().currsize > 0 for fn in geometry_memos())


def test_every_memo_is_read_by_a_benchmark_workload(tmp_path, capsys):
    # the operations of each perfbench workload, run through the CLI in
    # one process from empty memos, as one benchmark pass runs them: a
    # memo that none of them reads back has no measured reader
    inputs = Path(__file__).parent.parent / "perfbench" / "inputs"
    plurality = ["--polytope-file", str(inputs / "plurality_favor_b.hrep"),
                 "--polytope-file", str(inputs / "plurality_favor_c.hrep"),
                 "--subtract-file", str(inputs / "plurality_both.hrep")]
    rules = ("plurality", "borda", "antiplurality")

    def run(*argv):
        assert cli.main([*argv, "--format", "json"]) == 0, argv
        return json.loads(capsys.readouterr().out)

    def iac_events():
        specs = [row["spec"] for t in "1234" for row in run("table", "--table", t)]
        specs += [f"manipulable:{r}" for r in rules] + ["condorcet-paradox"]
        specs += [f"rule-winner:{r}" for r in rules]
        for spec in specs:
            run("prob", spec)

    def referendum():
        for n in range(3, 7):
            run("prob", f"referendum:N={n}")
        for k in (5, 6, 7):
            path = tmp_path / f"district_N8_k{k}.hrep"
            path.write_text(format_hrep(referendum_district_polytope(8, k)))
            run("volume", "--polytope-file", str(path))

    def quasipolynomial():
        run("ehrhart", *plurality, "--classes", "0,1,6")
        run("count", *plurality, "--n", "96")

    read = set()
    for workload in (iac_events, referendum, quasipolynomial):
        clear_geometry_memos()
        clear_event_memos()
        workload()
        read |= {fn.__name__ for fn in geometry_memos() + event_memos() if fn.cache_info().hits}
    assert {fn.__name__ for fn in geometry_memos() + event_memos()} - read == set()


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
    # of the 27 rows and the 6 + 5 ordering rows, the chamber keeps the
    # 5 sorted along both classes and the ordering rows
    assert len(district.integer_rows()) + 6 + 5 == 38
    assert len(chamber.integer_rows()) == 16
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
        [((c[1], c[2], c[0]), rel, rhs) for c, rel, rhs in p.integer_rows()],
    )
    assert p.volume() == swapped.volume()


def test_contains():
    simplex = standard_simplex(5)
    assert contains(simplex, (F(1, 6),) * 5)
    assert not contains(simplex, (2, 0, 0, 0, 0))
    with pytest.raises(DimensionError):
        contains(simplex, (0, 0))


def test_period_bound_of_empty_target_is_one():
    empty = HPolytope(2, [le((0, 0), -1)])
    assert period_bound(empty) == 1
    assert period_bound(EventRegion(((1, empty), (-1, empty)))) == 1


def test_region_volume_single_term_and_cancellation():
    p = unit_box(2)
    assert EventRegion.of(p).volume() == 1
    assert EventRegion(((1, p), (-1, p))).volume() == 0


def test_region_validation():
    p = unit_box(2)
    # weights are nonzero ints, never rounded: a bool is no weight either
    for weight in (0, 1.5, 1.7, F(1, 2), F(3, 2), F(2), True):
        with pytest.raises(ValueError, match="^term weights must be nonzero ints$"):
            EventRegion(((weight, p),))
    with pytest.raises(ValueError):
        EventRegion(())
    assert EventRegion(((2, p),)).volume() == 2
    assert EventRegion(((720, p), (-1, p))).volume() == 719
    with pytest.raises(DimensionError):
        EventRegion(((1, p), (1, unit_box(3))))
    with pytest.raises(AttributeError):
        EventRegion.of(p).terms = ()
    surplus = EventRegion(((1, standard_simplex(2)), (-1, unit_box(2))))
    with pytest.raises(GeometryError):
        surplus.volume()


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


def test_format_hrep_reproduces_the_benchmark_inputs():
    # the quasipolynomial benchmark reads the plurality manipulability
    # terms from checked-in files; they must match what the compiler builds
    inputs = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    names = ("plurality_favor_b.hrep", "plurality_favor_c.hrep", "plurality_both.hrep")
    terms = manipulability_event(PLURALITY).terms
    assert [s for s, _ in terms] == [1, 1, -1]
    for (_, poly), name in zip(terms, names):
        assert format_hrep(poly) == (inputs / name).read_text(encoding="utf-8")


def test_parse_hrep_errors():
    with pytest.raises(ValueError):
        parse_hrep("1 0 <= 1\n")  # missing header
    with pytest.raises(ValueError):
        parse_hrep("dim 2\n1 0 < 1\n")  # bad relation
    with pytest.raises(ValueError):
        parse_hrep("dim 2\n1 0 1 <= 1\n")  # wrong arity
    with pytest.raises(ValueError, match=r"^line 3: not a rational literal: '0\.5'$"):
        parse_hrep("dim 2\n0 1 <= 1\n1 0.5 <= 1\n")
    with pytest.raises(ValueError, match=r"^line 2: zero denominator in '1/0'$"):
        parse_hrep("dim 2\n1/0 0 <= 1\n")
    with pytest.raises(ValueError, match=r"^line 3: zero denominator in '3/0'$"):
        parse_hrep("# rhs\ndim 2\n1 0 <= 3/0\n")
    with pytest.raises(ValueError, match=r"^line 1: dimension 'two' is not an integer$"):
        parse_hrep("dim two\n1 0 <= 1\n")
    # ASCII digits only, no sign or digit separator
    for dim in ("\u0662", "0_2", "+2", "-2"):
        with pytest.raises(ValueError) as exc:
            parse_hrep(f"dim {dim}\n1 0 <= 1\n")
        assert str(exc.value) == f"line 1: dimension {dim!r} is not an integer"
    # Arabic-Indic digits are not read as 1 <= 2
    with pytest.raises(ValueError, match="^line 2: not a rational literal: '\u0661'$"):
        parse_hrep("dim 1\n\u0661 <= \u0662\n")

"""Randomized cross-checks tying counting, interpolation and volume
together on small polytopes, plus the grid-convergence and
inclusion-exclusion identities."""

import itertools
import math
import random
from fractions import Fraction as F
from math import comb

from polyvote.ehrhart import (
    _le_rows,
    _memo_keys,
    count_lattice_points,
    ehrhart_pipeline,
    period_bound,
)
from polyvote.polytope import HPolytope

from helpers import bounding_box, brute_count, dilation_contains, vertices


def ge(coeffs, rhs=0):
    return tuple(coeffs), ">=", rhs


def le(coeffs, rhs):
    return tuple(coeffs), "<=", rhs


def standard_simplex(dim):
    rows = [ge(tuple(int(i == j) for j in range(dim))) for i in range(dim)]
    rows.append(le((1,) * dim, 1))
    return HPolytope(dim, rows)


def _random_polytope(rng, dim):
    rows = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rows += [ge(e, -1), le(e, 1)]
    for _ in range(rng.randint(1, dim)):
        coeffs = [0] * dim
        support = rng.sample(range(dim), rng.randint(1, min(3, dim)))
        for i in support:
            coeffs[i] = rng.choice([-3, -2, -1, 1, 2, 3])
        rows.append(le(tuple(coeffs), rng.randint(0, 3)))
    return HPolytope(dim, rows)


def _sample_polytopes(count, dims, max_period, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        poly = _random_polytope(rng, rng.choice(dims))
        if len(vertices(poly)) <= poly.dim:
            continue
        if period_bound(poly) > max_period:
            continue
        found.append(poly)
    return found


def test_leading_coefficient_equals_volume_on_100_random_polytopes():
    polys = _sample_polytopes(100, dims=(2, 2, 3, 3, 4), max_period=3, seed=96)
    for poly in polys:
        q = ehrhart_pipeline(poly, classes=[0], budget=10**8)
        assert q.leading_coefficient() == poly.volume()


def test_quasipolynomial_reproduces_fresh_counts():
    for poly in _sample_polytopes(5, dims=(2, 3), max_period=2, seed=7):
        q = ehrhart_pipeline(poly)
        fresh = q.period * (poly.dim + 4) + 1
        assert q.evaluate(fresh) == count_lattice_points(poly, fresh)


def test_count_inclusion_exclusion_identity_random_pairs():
    rng = random.Random(2026)
    pairs = 0
    while pairs < 8:
        dim = rng.choice((2, 2, 3))
        p, q = _random_polytope(rng, dim), _random_polytope(rng, dim)
        if p.is_empty() or q.is_empty():
            continue
        pairs += 1
        meet = p.intersect(q)
        for n in (3, 7, 15):
            direct_union = _brute_union_count(p, q, n)
            signed = (
                count_lattice_points(p, n)
                + count_lattice_points(q, n)
                - count_lattice_points(meet, n)
            )
            assert signed == direct_union


def _brute_union_count(p, q, n):
    los, his = [], []
    for poly in (p, q):
        lo, hi = bounding_box(poly)
        los.append(lo)
        his.append(hi)
    axes = [
        range(
            math.ceil(n * min(l1, l2)), math.floor(n * max(h1, h2)) + 1
        )
        for l1, l2, h1, h2 in zip(los[0], los[1], his[0], his[1])
    ]
    hp, hq = p.integer_rows(), q.integer_rows()
    return sum(
        dilation_contains(hp, point, n) or dilation_contains(hq, point, n)
        for point in itertools.product(*axes)
    )


def test_volume_invariant_under_random_coordinate_permutations():
    rng = random.Random(11)
    for poly in _sample_polytopes(10, dims=(3, 4), max_period=4, seed=11):
        perm = list(range(poly.dim))
        rng.shuffle(perm)
        permuted = HPolytope(
            poly.dim,
            [
                (tuple(c[perm[i]] for i in range(poly.dim)), rel, rhs)
                for c, rel, rhs in poly.integer_rows()
            ],
        )
        assert permuted.volume() == poly.volume()


def test_grid_convergence_on_simplex():
    simplex = standard_simplex(5)
    vol = simplex.volume()
    errors = []
    for n in (10, 20, 40):
        density = F(count_lattice_points(simplex, n), n**5)
        errors.append(abs(density - vol))
    assert errors[0] > errors[1] > errors[2]


def test_counts_match_brute_force_on_random_polytopes():
    for poly in _sample_polytopes(6, dims=(2, 3), max_period=4, seed=3):
        for n in (1, 2, 5):
            assert count_lattice_points(poly, n) == brute_count(poly, n)


def _repeated_column_polytope(rng, dim):
    """A random polytope in the unit box whose other rows see the
    coordinates through a few column directions, repeated and scaled
    (by 0 too, so rows skip coordinates), so that distinct prefixes
    reach the same residuals; one row in four is an equality."""
    directions = rng.randint(1, dim - 2)
    source = [rng.randrange(directions) for _ in range(dim)]
    scale = [rng.choice([1, 1, 2, -1, 0]) for _ in range(dim)]
    rows = []
    for i in range(dim):
        e = tuple(int(i == j) for j in range(dim))
        rows += [ge(e), le(e, 1)]
    for _ in range(rng.randint(1, 3)):
        column = [rng.choice([-2, -1, 0, 1, 2, 3]) for _ in range(directions)]
        coeffs = tuple(F(column[source[i]] * scale[i]) for i in range(dim))
        rel = rng.choice(("<=", "<=", ">=", "="))
        rows.append((coeffs, rel, F(rng.randint(-dim, 2 * dim), 2)))
    return HPolytope(dim, rows)


def test_memoized_counts_match_brute_force_on_repeated_columns():
    rng = random.Random(404)
    checked = equalities = 0
    while checked < 40:
        poly = _repeated_column_polytope(rng, rng.choice((3, 4, 5)))
        if poly.is_empty() or not _memo_keys(_le_rows(poly), poly.dim):
            continue
        checked += 1
        equalities += any(rel == "=" for _, rel, _ in poly.integer_rows())
        for n in (2, 3, 4):
            assert count_lattice_points(poly, n) == brute_count(poly, n)
    assert equalities >= 5

"""Lattice counts of the compiled event polytopes against the finite-n
oracle of ``oracle.py``, which decides each event on every profile of
n <= 10 voters without the event compilers."""

from fractions import Fraction as F
from itertools import permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyvote.socialchoice as sc
from polyvote.ehrhart import (
    _read_steps,
    _series_term,
    count_lattice_points,
    ehrhart_series,
    region_count,
)
from polyvote.polytope import EventRegion

import oracle
from helpers import (
    LAMBDAS,
    MANIPULABLE_UNION_SERIES,
    CountTable,
    gf_coefficients,
    interpolate_quasipolynomial,
    spec_regions,
)

DILATIONS = range(11)


def test_profiles_are_the_lattice_points_of_the_share_simplex():
    simplex = sc.share_space_polytope([])
    for n in DILATIONS:
        found = list(oracle.profiles(n))
        assert len(found) == len(set(found)) == comb(n + 5, 5)
        assert all(min(p) >= 0 and sum(p) == n for p in found)
        assert count_lattice_points(simplex, n) == len(found)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_rule_winner_and_ranking_counts(lam):
    rule = sc.ScoringRule(lam)
    winner = sc.conjunction((sc.score("a", "b", rule), sc.score("a", "c", rule)))
    ranking = sc.conjunction((sc.score("a", "b", rule), sc.score("b", "c", rule)))
    for n in DILATIONS:
        assert count_lattice_points(winner, n) == oracle.count(oracle.rule_winner, n, lam)
        assert count_lattice_points(ranking, n) == oracle.count(oracle.rule_ranking, n, lam)


@pytest.mark.parametrize("candidate", sc.CANDIDATES)
def test_condorcet_winner_and_loser_counts(candidate):
    others = [c for c in sc.CANDIDATES if c != candidate]
    winner = sc.conjunction(tuple(sc.margin(candidate, o) for o in others))
    loser = sc.conjunction(tuple(sc.margin(o, candidate) for o in others))
    for n in DILATIONS:
        assert (count_lattice_points(winner, n)
                == oracle.count(oracle.condorcet_winner, n, candidate))
        assert (count_lattice_points(loser, n)
                == oracle.count(oracle.condorcet_loser, n, candidate))


@pytest.mark.parametrize("mode", ("winner", "ranking"))
@pytest.mark.parametrize("lams", [
    (F(0), F(1)), (F(0), F(1, 2)), (F(1), F(1, 2)), (F(1, 3), F(2, 5)),
], ids=lambda lams: ",".join(map(str, lams)))
def test_agreement_counts(lams, mode):
    rules = ",".join(f"lambda={lam}" for lam in lams)
    [(weight, poly)] = spec_regions(f"agreement:{rules}:{mode}")[1].terms
    assert weight == (3 if mode == "winner" else 6)
    for n in DILATIONS:
        assert count_lattice_points(poly, n) == oracle.count(oracle.agreement, n, *lams, mode)


PAIRS = list(permutations(sc.CANDIDATES, 2))
# an atom as the oracle reads it: ("score", x, y, lam) or ("margin", x, y)
ATOMS = st.one_of(
    st.builds(lambda pair, lam: ("score", *pair, lam),
              st.sampled_from(PAIRS), st.sampled_from(LAMBDAS)),
    st.builds(lambda pair: ("margin", *pair), st.sampled_from(PAIRS)),
)


@given(st.lists(ATOMS, min_size=1, max_size=4))
def test_atom_conjunctions_count_like_the_oracle(atoms):
    compiled = tuple(sc.score(x, y, sc.ScoringRule(*lam)) if kind == "score" else sc.margin(x, y)
                     for kind, x, y, *lam in atoms)
    region = EventRegion.of(sc.conjunction(compiled))
    for n in range(9):
        assert region_count(region, n) == oracle.count(oracle.atoms_hold, n, atoms), n


def test_plurality_manipulability_counts():
    region = sc.manipulability_event(sc.PLURALITY)
    counts = [oracle.count(oracle.plurality_manipulable, n) for n in DILATIONS]
    assert counts == [region_count(region, n) for n in DILATIONS]
    series = gf_coefficients(MANIPULABLE_UNION_SERIES, DILATIONS[-1]).entries
    assert counts == [series[n] for n in DILATIONS]


@pytest.mark.parametrize("lam", LAMBDAS, ids=lambda lam: sc.ScoringRule(lam).name)
def test_manipulability_counts_against_every_coalition_ballot(lam):
    region = sc.manipulability_event(sc.ScoringRule(lam))
    counts = [oracle.count(oracle.manipulable, n, lam) for n in DILATIONS]
    assert counts == [region_count(region, n) for n in DILATIONS]


SERIES_REGIONS = {
    "manipulable:plurality": (sc.manipulability_event(sc.PLURALITY),
                              (oracle.plurality_manipulable,)),
    "CW(a)": (EventRegion.of(sc.conjunction((sc.margin("a", "b"), sc.margin("a", "c")))),
              (oracle.condorcet_winner, "a")),
}


@pytest.mark.parametrize("name", SERIES_REGIONS)
def test_the_ehrhart_series_against_the_oracle(name):
    region, (event, *args) = SERIES_REGIONS[name]
    series = ehrhart_series(region)
    # every value the profiles of n <= 10 voters give
    assert [series.value(n) for n in DILATIONS] == [
        oracle.count(event, n, *args) for n in DILATIONS]
    # extending h / D at n = 96 and halving at n = 10^9 read what the
    # halving alone reads
    for n, halves in ((96, False), (10**9, True)):
        assert _read_steps(series.factors, n)[1] == halves
        assert series.value(n) == _series_term(series.h, series.factors, n)
    # D = prod (1 - t^j)^e_j is (1 - t)^(dim + 1) times a unit at t = 1
    # over prod j^e_j, so the count grows as h(1) n^dim / (dim! prod j^e_j)
    assert sum(series.factors.values()) == region.dim + 1
    scale = factorial(region.dim) * prod(F(j) ** e for j, e in series.factors.items())
    assert sum(series.h) / scale == region.volume()


def test_the_integer_class_fits_equal_lagrange_on_every_plurality_class():
    series = ehrhart_series(sc.manipulability_event(sc.PLURALITY))
    assert series.period == 12
    table = CountTable(gf_coefficients(MANIPULABLE_UNION_SERIES, 12 * 8).entries)
    fitted = series.fit(range(series.period))
    assert list(fitted) == list(range(12))
    assert fitted == interpolate_quasipolynomial(table, 12, 5)

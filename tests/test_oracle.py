"""Lattice counts of the compiled event polytopes against the finite-n
oracle of ``oracle.py``, which decides each event on every profile of
n <= 10 voters without the event compilers."""

from fractions import Fraction as F
from math import comb

import pytest

import polyvote.socialchoice as sc
from polyvote.ehrhart import count_lattice_points, region_count

import oracle
from helpers import MANIPULABLE_UNION_SERIES, gf_coefficients

DILATIONS = range(11)
LAMBDAS = (F(0), F(1, 3), F(2, 5), F(1, 2), F(37228, 100000), F(1))


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
    winner = sc.rule_winner_conditions(rule)
    ranking = sc.rule_ranking_conditions(rule)
    for n in DILATIONS:
        assert count_lattice_points(winner, n) == oracle.count(oracle.rule_winner, n, lam)
        assert count_lattice_points(ranking, n) == oracle.count(oracle.rule_ranking, n, lam)


@pytest.mark.parametrize("candidate", sc.CANDIDATES)
def test_condorcet_winner_and_loser_counts(candidate):
    winner = sc.condorcet_winner(candidate)
    loser = sc.condorcet_loser(candidate)
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
    poly, _ = sc.agreement_event(*map(sc.ScoringRule, lams), mode)
    for n in DILATIONS:
        assert count_lattice_points(poly, n) == oracle.count(oracle.agreement, n, *lams, mode)


def test_plurality_manipulability_counts():
    region = sc.manipulability_event(sc.PLURALITY)
    counts = [oracle.count(oracle.plurality_manipulable, n) for n in DILATIONS]
    assert counts == [region_count(region, n) for n in DILATIONS]
    series = gf_coefficients(MANIPULABLE_UNION_SERIES, DILATIONS[-1]).entries
    assert counts == [series[n] for n in DILATIONS]

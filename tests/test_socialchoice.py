from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyvote.socialchoice as sc
from polyvote import polytope
from polyvote.ehrhart import (
    BudgetExceededError,
    count_lattice_points,
    ehrhart_series,
)
from polyvote.linalg import decimal_string
from polyvote.polytope import EventRegion, GeometryError, HPolytope

from helpers import (
    FAVOR_B_SERIES,
    FAVOR_BOTH_SERIES,
    FAVOR_C_SERIES,
    LAMBDAS,
    MANIPULABLE_UNION_SERIES,
    brute_count,
    clear_event_memos,
    eliminate_over_fractions,
    event_memos,
    gf_coefficients,
    spec_regions,
    vertex_lcm,
    vertices,
)


def prob(spec):
    return sc.probability_for_spec(spec).probability


def wins(rule):
    """Candidate a scores at least as much as b and as c."""
    return sc.score("a", "b", rule), sc.score("a", "c", rule)


def condorcet(candidate, loser=False):
    """The candidate wins, or loses, both pairwise comparisons."""
    others = [c for c in sc.CANDIDATES if c != candidate]
    return tuple(sc.margin(o, candidate) if loser else sc.margin(candidate, o) for o in others)


# -- share-space plumbing ------------------------------------------------------


def test_scoring_vector_pattern():
    # weights (q, p, 0) for lam = p/q, over the orders abc, acb, bac, bca, cab, cba
    assert sc.scoring_vector("a", F(1, 2)) == (2, 2, 1, 0, 1, 0)
    assert sc.scoring_vector("b", F(0)) == (0, 0, 1, 1, 0, 0)
    assert sc.scoring_vector("c", F(1)) == (0, 1, 0, 1, 1, 1)
    assert sc.scoring_vector("c", F(2, 5)) == (0, 2, 0, 2, 5, 5)
    for lam in (F(0), F(1, 3), F(37228, 100000), F(1)):
        assert all(type(v) is int for v in sc.scoring_vector("a", lam))


def test_pairwise_vector_antisymmetry():
    for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
        vx = sc.pairwise_vector(x, y)
        vy = sc.pairwise_vector(y, x)
        assert all(p == -q for p, q in zip(vx, vy))
        assert all(abs(p) == 1 for p in vx)


def test_share_space_polytope_has_standard_inequalities():
    poly = sc.share_space_polytope([])
    assert poly.dim == 5
    assert poly == sc.conjunction(())
    assert poly.volume() == F(1, 120)


def test_rule_validation():
    with pytest.raises(ValueError):
        sc.ScoringRule(F(3, 2))
    assert sc.rule_from_token("borda").lam == F(1, 2)
    assert sc.rule_from_token("lambda=2/5").lam == F(2, 5)
    with pytest.raises(ValueError):
        sc.rule_from_token("approval")
    with pytest.raises(AttributeError):
        sc.BORDA.lam = F(1)


def test_winner_conditions_reduce_to_known_rows():
    # generic scoring comparison rows in the reduced space, lam = 2/5:
    # x1 + (1+lam)x2 + (2lam-1)x3 + (lam-1)x4 + 2lam*x5 >= lam  (a vs b)
    # 2x1 + (2-lam)x2 + (1+lam)x3 + (1-lam)x4 + lam*x5 >= 1     (a vs c)
    lam = F(2, 5)
    poly = sc.conjunction(wins(sc.ScoringRule(lam)))
    rows = set(poly.integer_rows())

    def normalized(coeffs, rhs):
        from math import gcd, lcm

        mult = lcm(*(F(c).denominator for c in coeffs), F(rhs).denominator)
        ints = [int(F(c) * mult) for c in coeffs] + [int(F(rhs) * mult)]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        # stored as <= rows
        return (tuple(-v for v in ints[:-1]), "<=", -ints[-1])

    row_ab = normalized([1, 1 + lam, 2 * lam - 1, lam - 1, 2 * lam], lam)
    row_ac = normalized([2, 2 - lam, 1 + lam, 1 - lam, lam], 1)
    assert row_ab in rows and row_ac in rows


def test_plurality_winner_row_matches_top_share_comparison():
    poly = sc.conjunction(wins(sc.PLURALITY))
    rows = set(poly.integer_rows())
    # a's top shares beat b's: x1 + x2 - x3 - x4 >= 0
    assert ((-1, -1, 1, 1, 0), "<=", 0) in rows


# -- probabilities of single events ---------------------------------------------


def test_rule_winner_probability_is_one_third():
    for lam in (F(0), F(1, 3), F(1, 2), F(4, 5), F(1)):
        assert prob(f"rule-winner:lambda={lam}") == F(1, 3)


@given(st.fractions(min_value=0, max_value=1).filter(lambda q: q.denominator <= 12))
def test_rule_winner_probability_is_one_third_generic(lam):
    assert prob(f"rule-winner:lambda={lam}") == F(1, 3)


def test_condorcet_winner_volume():
    assert sc.conjunction(condorcet("a")).volume() == F(1, 384)


def test_condorcet_events_symmetric_under_relabeling():
    for loser in (False, True):
        base = sc.conjunction(condorcet("a", loser)).volume()
        assert sc.conjunction(condorcet("b", loser)).volume() == base
        assert sc.conjunction(condorcet("c", loser)).volume() == base


def test_condorcet_paradox_probability():
    assert prob("condorcet-paradox") == F(1, 16)


def test_condorcet_efficiencies():
    assert prob("condorcet-efficiency:plurality") == F(119, 135)
    assert prob("condorcet-efficiency:borda") == F(41, 45)
    assert prob("condorcet-efficiency:antiplurality") == F(17, 27)


def test_condorcet_loser_elections():
    assert prob("condorcet-loser:plurality") == F(1, 36)
    assert prob("condorcet-loser:borda") == 0
    assert prob("condorcet-loser:antiplurality") == F(17, 576)


def _spec_form(event, over):
    """A registry form outside the registry, measuring ``event`` against ``over``."""
    return sc.SpecForm("test", (), lambda: ("test", event, over))


def test_iac_probability_of_whole_simplex_is_one(cleared_memos):
    # the kernel computes the simplex's volume; no evaluator constant stands in
    assert sc.IAC == EventRegion.of(sc.share_space_polytope([]))
    assert sc.IAC.volume() == F(1, 120)
    assert sc._evaluate(_spec_form(sc.IAC, sc.IAC), ()) == ("test", 1)
    # an event measured against nothing is its own volume, weights included
    whole = EventRegion(((384, sc.conjunction(condorcet("a"))),))
    assert sc._evaluate(_spec_form(whole, None), ()) == ("test", 1)


def test_conditional_probability_rejects_null_condition(cleared_memos):
    null = wins(sc.BORDA) + condorcet("a", loser=True)
    form = _spec_form(EventRegion.of(sc.conjunction(condorcet("a") + null)),
                      EventRegion.of(sc.conjunction(null)))
    with pytest.raises(GeometryError, match="^conditioning event has zero volume$"):
        sc._evaluate(form, ())
    assert sc._evaluate.cache_info().currsize == 0


# -- manipulability --------------------------------------------------------------


def test_borda_manipulation_volumes_and_period_bounds():
    region = sc.manipulability_event(sc.BORDA)
    (s1, favor_b), (s2, favor_c), (s3, both) = region.terms
    assert (s1, s2, s3) == (1, 1, -1)
    assert favor_b.volume() == F(371, 559872)
    assert favor_c.volume() == F(881, 6531840)
    assert both.volume() == F(170873, 1714608000)
    assert vertex_lcm(favor_b) == 72
    assert vertex_lcm(favor_c) == 504
    assert vertex_lcm(both) == 1260


def test_borda_manipulability_probability():
    value = prob("manipulable:borda")
    assert value == F(132953, 264600)
    assert decimal_string(value, 10) == "0.5024678760"


def test_plurality_manipulability_probability():
    assert prob("manipulable:plurality") == F(7, 24)


def test_antiplurality_manipulability_probability():
    assert prob("manipulable:antiplurality") == F(14, 27)


def test_plurality_counts_match_known_series():
    region = sc.manipulability_event(sc.PLURALITY)
    polys = [p for _, p in region.terms]
    series = [FAVOR_B_SERIES, FAVOR_C_SERIES, FAVOR_BOTH_SERIES]
    for poly, gf in zip(polys, series):
        table = gf_coefficients(gf, 30)
        for n in range(31):
            assert count_lattice_points(poly, n) == table.entries[n]
    # dilations whose vertex boxes hold 7.0e9 points (n = 200) to 2.1e13
    # (n = 1000) but visit at most a few 1e5 nodes, within the default
    # budget, against the union series
    union = gf_coefficients(MANIPULABLE_UNION_SERIES, 1000).entries
    for n in (200, 300, 1000):
        signed = sum(s * count_lattice_points(p, n) for s, p in region.terms)
        assert signed == union[n]


def test_plurality_union_series_consistency():
    b = gf_coefficients(FAVOR_B_SERIES, 40).entries
    c = gf_coefficients(FAVOR_C_SERIES, 40).entries
    bc = gf_coefficients(FAVOR_BOTH_SERIES, 40).entries
    u = gf_coefficients(MANIPULABLE_UNION_SERIES, 40).entries
    for n in range(41):
        assert u[n] == b[n] + c[n] - bc[n]


def test_plurality_counts_match_brute_force():
    region = sc.manipulability_event(sc.PLURALITY)
    favor_b = region.terms[0][1]
    for n in (1, 3, 6, 9):
        assert count_lattice_points(favor_b, n) == brute_count(favor_b, n)


def test_borda_counts_match_brute_force():
    for _, term in sc.manipulability_event(sc.BORDA).terms:
        for n in range(9):
            assert count_lattice_points(term, n) == brute_count(term, n)


def test_printed_strategic_variant_row_is_redundant():
    # the b-favoring system is sometimes written with the extra row
    # -x1 + x2 + 2x3 + 2x4 - x5 >= 0; it changes nothing
    region = sc.manipulability_event(sc.PLURALITY)
    favor_b = region.terms[0][1]
    variant = favor_b.intersect(
        sc.share_space_polytope([(-1, 1, 2, 2, -1, 0)])
    )
    assert variant.volume() == favor_b.volume()
    for n in (2, 5, 11):
        assert count_lattice_points(variant, n) == count_lattice_points(favor_b, n)


# reference strategic rows of the b-favoring coalition, eliminated by
# hand for the three named rules: plurality's cba voters switch to b;
# Borda's coalition splits its second places between a and c;
# antiplurality's coalition splits its vetoes between a and c
HAND_STRATEGIC_ROWS = {
    F(0): [(-1, -1, 1, 1, 0, 1), (0, 0, 1, 1, -1, 1)],
    F(1, 2): [(-1, -2, 2, 2, -1, 2), (0, -1, 1, 1, -1, 1)],
    F(1): [(0, -1, 1, 1, -1, 1), (1, -2, 1, 1, -2, 1)],
}


def test_derived_strategic_rows_match_the_hand_eliminated_systems(monkeypatch):
    derived = {r: sc.manipulability_event(r).terms
               for r in (sc.PLURALITY, sc.BORDA, sc.ANTIPLURALITY)}
    # the c side is the b side with b and c exchanged
    monkeypatch.setattr(sc, "_strategic_rows", lambda rule, x: [
        relabel(r, "bc") if x == "c" else r for r in HAND_STRATEGIC_ROWS[rule.lam]])
    for rule, terms in derived.items():
        hand = sc.manipulability_event(rule).terms
        assert [s for s, _ in terms] == [s for s, _ in hand] == [1, 1, -1]
        for (_, ours), (_, theirs) in zip(terms, hand):
            if rule == sc.PLURALITY:
                assert ours.integer_rows() == theirs.integer_rows()
            else:
                # redundant rows added, the same polytope
                assert set(ours.integer_rows()) > set(theirs.integer_rows())
                assert vertices(ours) == vertices(theirs)


# a's pairwise margins over the orders abc, acb, bac, bca, cab, cba
A_BEATS_B = (1, 1, -1, -1, 1, -1)
A_BEATS_C = (1, 1, 1, -1, -1, -1)


def relabel(row, swap):
    """The homogeneous row with the two candidates of ``swap``
    exchanged: each order takes the row's entry of that order renamed."""
    names = str.maketrans(swap, swap[::-1])
    return tuple(row[sc.ORDERS.index(order.translate(names))] for order in sc.ORDERS)


def test_events_named_by_other_candidates_are_relabelings():
    for lam in LAMBDAS:
        rule = sc.ScoringRule(lam)
        assert sc._strategic_rows(rule, "c") == [relabel(r, "bc")
                                                 for r in sc._strategic_rows(rule, "b")]
    winner_a = [A_BEATS_B, A_BEATS_C]
    loser_a = [tuple(-v for v in r) for r in winner_a]
    for c in "bc":
        for loser, rows in ((False, winner_a), (True, loser_a)):
            expected = sc.share_space_polytope([relabel(r, "a" + c) for r in rows])
            assert sc.conjunction(condorcet(c, loser)).integer_rows() == expected.integer_rows()
    # an atom names its unknown candidate, on either side
    for atom, name in ((sc.margin("a", "d"), "d"), (sc.margin("x", "b"), "x"),
                       (sc.score("c", "d", sc.BORDA), "d")):
        with pytest.raises(ValueError, match=f"^unknown candidate '{name}'$"):
            sc.conjunction((atom,))


def test_manipulability_rejects_other_rules():
    # every positional rule (1, lam, 0) with 0 <= lam <= 1 is evaluated;
    # weights outside that family and non-positional rules are refused
    with pytest.raises(ValueError):
        sc.manipulability_event(sc.ScoringRule(F(4, 3)))
    for spec in ("manipulable:lambda=4/3", "manipulable:lambda=-1",
                 "manipulable:copeland"):
        with pytest.raises(ValueError):
            prob(spec)


# -- agreement -------------------------------------------------------------------


def test_all_positional_agreement():
    [(factor, poly)] = spec_regions("agreement:plurality,antiplurality:winner")[1].terms
    assert factor == 3
    assert poly.volume() == F(113, 77760)
    assert len(vertices(poly)) == 18
    assert ehrhart_series(EventRegion.of(poly)).period == 12
    assert prob("agreement:plurality,antiplurality:winner") == F(113, 216)


def test_pairwise_agreement_probabilities():
    assert prob("agreement:plurality,borda:winner") == F(89, 108)
    assert prob("agreement:antiplurality,borda:winner") == F(1039, 1512)
    assert prob("agreement:plurality,antiplurality:ranking") == F(8, 27)
    assert prob("agreement:plurality,borda:ranking") == F(61, 108)
    assert prob("agreement:antiplurality,borda:ranking") == F(61, 108)
    with pytest.raises(ValueError, match=r"expected one of winner\|ranking$"):
        prob("agreement:plurality,borda:podium")


def test_agreement_given_condorcet_winner():
    [(_, joint)] = spec_regions("joint-efficiency:antiplurality,plurality")[1].terms
    assert joint == sc.conjunction(wins(sc.PLURALITY) + wins(sc.ANTIPLURALITY) + condorcet("a"))
    assert len(vertices(joint)) == 29
    assert prob("joint-efficiency:antiplurality,plurality") == F(3437, 6480)


def test_cyclic_agreement_contribution():
    cyclic = [p for w, p in spec_regions("all-rules-agree")[1].terms
              if w == sc.CYCLIC_CASE_MULTIPLIER]
    assert len(cyclic) == 2
    assert sum(p.volume() for p in cyclic) / sc.IAC.volume() == F(5, 10368)


def test_all_rules_agree_probability_and_identity():
    assert prob("all-rules-agree") == F(10631, 20736)
    assert F(3437, 6480) * F(15, 16) + F(5, 324) == F(10631, 20736)


# -- participation paradoxes ------------------------------------------------------


BORDA_ROW = {"PPP": F(1, 72), "NPP": F(1, 48), "PAP": F(1, 96), "NAP": F(1, 72)}


def test_borda_runoff_participation_row_exact():
    for paradox, expected in BORDA_ROW.items():
        assert prob(f"participation:borda:{paradox}") == expected


def test_participation_structural_zeros():
    assert prob("participation:plurality:PPP") == 0
    assert prob("participation:plurality:PAP") == 0
    assert prob("participation:antiplurality:NPP") == 0
    assert prob("participation:antiplurality:NAP") == 0


def test_participation_decimals():
    cells = {
        "participation:plurality:NPP": "0.07292",
        "participation:plurality:NAP": "0.04080",
        "participation:antiplurality:PPP": "0.03822",
        "participation:antiplurality:PAP": "0.04253",
    }
    for spec, text in cells.items():
        assert decimal_string(prob(spec)) == text


def test_participation_exact_fractions():
    # engine-derived exact values behind the published decimals
    assert prob("participation:plurality:NPP") == F(7, 96)
    assert prob("participation:plurality:NAP") == F(47, 1152)
    assert prob("participation:antiplurality:PPP") == F(43, 1125)
    assert prob("participation:antiplurality:PAP") == F(49, 1152)


def test_borda_ppp_polytope_shape():
    poly = sc.participation_event(sc.BORDA, "PPP")
    assert len(vertices(poly)) == 6
    assert ehrhart_series(EventRegion.of(poly)).period == 18


def test_participation_rejects_unknown_paradox():
    with pytest.raises(ValueError):
        sc.participation_event(sc.BORDA, "XYZ")


# -- referendum -------------------------------------------------------------------


def test_referendum_exact_values():
    assert sc.referendum_probability(3) == F(1, 8)
    assert sc.referendum_probability(4) == F(1, 48)
    assert sc.referendum_probability(5) == F(55, 384)
    assert sc.referendum_probability(7) == F(577, 3840)


def test_referendum_decimals():
    assert decimal_string(sc.referendum_probability(6)) == "0.03802"
    assert decimal_string(sc.referendum_probability(9)) == "0.15403"


def test_referendum_rejects_small_n():
    with pytest.raises(ValueError):
        sc.referendum_probability(2)


def test_referendum_probability_checks_the_unit_interval(cleared_memos, monkeypatch):
    # every district polytope measures 1, so the weights alone, 2 * C(3, 2),
    # make the probability; referendum_probability reads probability_for_spec,
    # whose [0, 1] check refuses it
    monkeypatch.setattr(polytope, "_volume", lambda p: F(1))
    with pytest.raises(GeometryError, match=r"^referendum:N=3: probability 6 escaped \[0, 1\]$"):
        sc.referendum_probability(3)


def test_referendum_polytope_shape():
    # the k=4 polytope for 7 districts is the most constrained one: in
    # u_i = 2 x_i - [i < k] it is the unit cube cut by sum(u) <= 3, whose
    # vertices are the C(7,0) + ... + C(7,3) = 64 corners with sum <= 3
    poly = sc.referendum_district_polytope(7, 4)
    assert len(poly.integer_rows()) == 15
    assert len(vertices(poly)) == 64


# -- rule M ---------------------------------------------------------------------


RULE_M = "lambda=37228/100000"


def test_rule_m_probabilities():
    assert F(RULE_M.removeprefix("lambda=")) == sc.RULE_M_LAMBDA
    assert abs(prob(f"condorcet-efficiency:{RULE_M}") - F(92546, 100000)) < F(1, 1000)
    assert abs(prob(f"joint-efficiency:{RULE_M},borda") - F(89183, 100000)) < F(1, 1000)
    assert abs(prob(f"condorcet-loser:{RULE_M}") - F(131, 100000)) < F(2, 10000)


# -- event specs and tables -------------------------------------------------------


def test_every_rule_form_accepts_any_positional_rule():
    # no spec kind special-cases the rules it is given: every form with a
    # RULE field evaluates at lambda = 1/3 (and 2/5 as the second rule),
    # with every option of its other fields
    rules = {"RULE": ["lambda=1/3"], "RULE,RULE": ["lambda=1/3,lambda=2/5"],
             "RULE|RULE": ["lambda=1/3|lambda=2/5"]}
    forms = [f for fs in sc.EVENT_SPECS.values() for f in fs
             if any(field in rules for field in f.fields)]
    assert {f.kind for f in forms} >= {"manipulable", "participation", "agreement"}
    for form in forms:
        options = [rules.get(field, field.split("|")) for field in form.fields]
        for args in product(*options):
            spec = ":".join((form.kind,) + args)
            assert 0 <= prob(spec) <= 1, spec


def test_probability_for_spec_round_trip():
    checks = {
        "manipulable:plurality": F(7, 24),
        "manipulable:borda": F(132953, 264600),
        "manipulable:lambda=1/3": F(923984242439, 2146654224000),
        "condorcet-paradox": F(1, 16),
        "condorcet-winner": F(15, 16),
        "condorcet-efficiency:borda": F(41, 45),
        "condorcet-loser:plurality": F(1, 36),
        "condorcet-loser": F(15, 16),
        "rule-winner:lambda=1/3": F(1, 3),
        "agreement:plurality,antiplurality:winner": F(113, 216),
        "agreement:plurality,borda:ranking": F(61, 108),
        "all-rules-agree": F(10631, 20736),
        "participation:borda:PPP": F(1, 72),
        "referendum:N=5": F(55, 384),
    }
    for spec, expected in checks.items():
        assert prob(spec) == expected


def test_probability_for_spec_inline_arguments():
    # a rule weight and a district count are part of the spec itself
    assert prob("condorcet-efficiency:lambda=1/2") == F(41, 45)
    assert prob("referendum:N=4") == F(1, 48)
    result = sc.probability_for_spec("referendum:N=4")
    assert result == sc.EventResult(label="referendum paradox with 4 districts",
                                    spec="referendum:N=4", probability=F(1, 48))


def test_probability_for_spec_errors():
    for bad in ("mystery", "agreement:plurality:winner", "participation:borda:XXX",
                "referendum:K=5", "condorcet-efficiency", "rule-winner:lambda=1/0",
                # too many or too few fields
                "manipulable:borda:junk", "condorcet-paradox:foo", "rule-winner:borda:x",
                "condorcet-winner:z", "agreement:plurality,borda,antiplurality:winner"):
        with pytest.raises(ValueError):
            sc.probability_for_spec(bad)
    with pytest.raises(ValueError, match=r"agreement:RULE,RULE:winner\|ranking"):
        sc.probability_for_spec("agreement:plurality,borda,antiplurality:winner")
    with pytest.raises(ValueError, match="form manipulable:RULE"):
        sc.probability_for_spec("manipulable:borda:junk")


def test_zero_denominator_in_a_rule_weight_is_named():
    # the wording parse_rational uses for H-rep files, not Fraction's
    with pytest.raises(ValueError, match=r"^spec 'manipulable:lambda=1/0' does not match the "
                                         r"form manipulable:RULE: zero denominator in '1/0'$"):
        sc.probability_for_spec("manipulable:lambda=1/0")
    with pytest.raises(ValueError, match=r"^zero denominator in '-2/0'$"):
        sc.rule_from_token("lambda=-2/0")


def test_registry_forms_are_distinct_and_readable():
    for kind, forms in sc.EVENT_SPECS.items():
        assert len({len(f.fields) for f in forms}) == len(forms), kind
        for form in forms:
            assert form.kind == kind and form.build.__doc__
            assert form == sc.SpecForm(kind=form.kind, fields=form.fields, build=form.build)
            assert all(field in sc.ARGUMENT_FORMS for field in form.fields)


@pytest.mark.parametrize("value", [F(-1, 16), F(17, 16)])
def test_probability_for_spec_guards_unit_interval(monkeypatch, value):
    # every registry entry returns through one [0, 1] check
    monkeypatch.setattr(sc, "_evaluate", lambda form, values: ("broken", value))
    for spec in ("condorcet-paradox", "manipulable:borda", "referendum:N=3",
                 "agreement:plurality,borda:winner"):
        with pytest.raises(GeometryError, match="escaped"):
            sc.probability_for_spec(spec)


def test_table1_exact_fractions_and_cross_identities():
    rows = {r.label: r.probability for r in sc.table_rows(1)}
    # both extreme rules electing the pairwise winner is the same event as
    # all positional rules agreeing with it
    assert rows["(A & P) | C"] == F(3437, 6480)
    # relative efficiencies equal the ratio of their joint and marginal rows
    assert rows["B | (P & C)"] == rows["(B & P) | C"] / rows["P | C"]
    assert rows["B | (A & C)"] == rows["(A & B) | C"] / rows["A | C"]
    assert rows["(A & B) | C"] == F(4003, 6480)
    assert rows["(B & P) | C"] == F(2651, 3240)
    assert rows["B | (P & C)"] == F(2651, 2856)
    assert rows["B | (A & C)"] == F(4003, 4080)


def test_table_volumes_are_computed_once():
    # the second pass reads every row from the spec memo, so it reaches
    # the volume memo not even once
    clear_event_memos()
    polytope._volume.cache_clear()
    first = sc.table_rows(1)
    cold = polytope._volume.cache_info()
    assert sc.table_rows(1) == first
    warm = polytope._volume.cache_info()
    assert cold.misses > 0 and cold.hits > 0
    assert (warm.hits, warm.misses) == (cold.hits, cold.misses)


# the specs the benchmark's iac-events workload evaluates besides the tables
EXTRA_SPECS = (["manipulable:plurality", "manipulable:borda", "manipulable:antiplurality",
                "condorcet-paradox"]
               + [f"rule-winner:{r}" for r in ("plurality", "borda", "antiplurality")])

MEMOIZED = {"conjunction", "_evaluate"}


@pytest.fixture
def cleared_memos():
    # a test that patches a builder must not leave its values in the memos
    clear_event_memos()
    yield
    clear_event_memos()


def test_memoized_functions_are_the_shared_builders():
    assert {fn.__name__ for fn in event_memos()} == MEMOIZED


def test_memoized_specs_equal_their_cold_evaluation(cleared_memos):
    specs = [spec for n in (1, 2, 3, 4) for _, spec in sc._table_specs(n)] + EXTRA_SPECS
    cold = [sc.probability_for_spec(spec) for spec in specs]
    assert sc._evaluate.cache_info().misses == len(set(specs))
    warm = [sc.probability_for_spec(spec) for spec in specs]
    assert warm == cold
    assert all(type(r.probability) is F for r in warm)
    assert sc._evaluate.cache_info().hits == 2 * len(specs) - len(set(specs))


def test_printed_values_equal_ehrhart_leading_coefficients():
    # a second route to every printed value of tables 1-4 and the extra
    # specs: each term's Ehrhart leading coefficient (the n^dim coefficient
    # of class 0) in place of its volume.  It shares the compiled polytopes
    # and their vertices with the volume, but not the kernel's volume sum;
    # the weights, CYCLIC_CASE_MULTIPLIER among them, are the same on both
    # sides.  Rule M's polytope has a period bound of about 1.8e13, which
    # the default budget refuses.
    def leading(terms):
        total = F(0)
        for w, p in terms:
            coeffs = ehrhart_series(EventRegion.of(p)).fit([0])[0]
            total += w * (coeffs[p.dim] if len(coeffs) > p.dim else 0)
        return total

    rule_m = f"condorcet-loser:lambda={sc.RULE_M_LAMBDA}"
    specs = [spec for n in (1, 2, 3, 4) for _, spec in sc._table_specs(n)] + EXTRA_SPECS
    assert rule_m in specs
    for spec in specs:
        _, event, given = spec_regions(spec)
        if spec == rule_m:
            with pytest.raises(BudgetExceededError):
                leading(event.terms)
        else:
            assert leading(event.terms) / leading(given.terms) == prob(spec), spec


CONDITIONAL_KINDS = ("condorcet-efficiency", "joint-efficiency", "relative-efficiency")


def test_builders_return_weighted_terms():
    # IAC events are measured against the share simplex, conditional ones
    # against their condition, and the referendum against nothing
    specs = [spec for n in (1, 2, 3, 4, 5) for _, spec in sc._table_specs(n)] + EXTRA_SPECS
    for spec in specs:
        label, event, given = spec_regions(spec)
        kind = spec.split(":")[0]
        assert isinstance(label, str) and isinstance(event, EventRegion), spec
        if kind == "referendum":
            assert given is None, spec
        elif kind in CONDITIONAL_KINDS:
            assert isinstance(given, EventRegion) and given != sc.IAC, spec
        else:
            assert given == sc.IAC, spec
        for w, p in event.terms + (given.terms if given else ()):
            assert type(w) is int and isinstance(p, HPolytope), spec


def test_alias_specs_share_one_entry_and_keep_their_text(cleared_memos):
    first = sc.probability_for_spec("condorcet-loser:plurality")
    second = sc.probability_for_spec(" condorcet-loser:lambda=0 ")
    info = sc._evaluate.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert first.spec == "condorcet-loser:plurality"
    assert second.spec == "condorcet-loser:lambda=0"
    assert (first.label, first.probability) == (second.label, second.probability)


@pytest.mark.parametrize("spec", [
    "nope", "manipulable", "manipulable:foo", "condorcet-loser:lambda=3/2",
    "condorcet-loser:lambda=1/0", "agreement:plurality,borda:tie", "referendum:N=x",
    # ASCII digits only, no sign, space or digit separator
    "condorcet-loser:lambda=\u0661/\u0662", "referendum:N=1_0", "referendum:N=+5",
    "referendum:N= 5", "referendum:N=\u0665",
    # parsed, then refused by the builder
    "referendum:N=2",
])
def test_invalid_specs_raise_on_every_call(cleared_memos, spec):
    for _ in range(2):
        with pytest.raises(ValueError):
            sc.probability_for_spec(spec)
    assert sc._evaluate.cache_info().currsize == 0


def test_escaped_probability_raises_on_every_call(cleared_memos, monkeypatch):
    # every polytope but the simplex measures half the simplex's volume,
    # so the event, weight 3, comes out at 3/2
    monkeypatch.setattr(polytope, "_volume",
                        lambda p: F(1) if p == sc.conjunction(()) else F(1, 2))
    for _ in range(2):
        with pytest.raises(GeometryError,
                           match=r"^condorcet-winner: probability 3/2 escaped \[0, 1\]$"):
            sc.probability_for_spec("condorcet-winner")
    info = sc._evaluate.cache_info()
    # the second call read the memo and still ran the check
    assert (info.hits, info.misses) == (1, 1)


def test_table_shapes_and_spot_values():
    t1 = sc.table_rows(1)
    assert [r.label for r in t1][:3] == ["P | C", "A | C", "B | C"]
    assert t1[0].probability == F(119, 135)
    t2 = sc.table_rows(2)
    assert t2[2].probability == 0
    t3 = sc.table_rows(3)
    assert t3[-1].probability == F(10631, 20736)
    t4 = sc.table_rows(4)
    assert len(t4) == 12
    t5 = sc.table_rows(5)
    assert [r.spec for r in t5] == [f"referendum:N={n}" for n in (3, 4, 5, 6, 7, 9)]
    with pytest.raises(ValueError):
        sc.table_rows(6)


def _same_polytope(out, expected):
    assert out.integer_rows() == expected.integer_rows()
    assert out == expected and hash(out) == hash(expected)


def test_table_polytopes_equal_their_fraction_construction(monkeypatch):
    # share_space_polytope compiles integer rows and substitutes x_6
    # itself; every polytope tables 1-4, the manipulability terms and the
    # Condorcet events build must equal the one built from the rows in
    # 6-d with the simplex equality eliminated in Fraction arithmetic
    compiled = []
    compile_rows = sc.share_space_polytope

    def compile_spy(rows):
        out = compile_rows(rows)
        compiled.append((rows, out))
        return out

    # memoized conjunctions and specs would otherwise hand back polytopes
    # built before the spy was installed
    clear_event_memos()
    monkeypatch.setattr(sc, "share_space_polytope", compile_spy)
    for number in (1, 2, 3, 4):
        sc.table_rows(number)
    for rule in (sc.PLURALITY, sc.BORDA, sc.ANTIPLURALITY):
        sc.manipulability_event(rule)
    for candidate in sc.CANDIDATES:
        sc.conjunction(condorcet(candidate))
        sc.conjunction(condorcet(candidate, loser=True))
    assert compiled
    for rows, out in compiled:
        assert all(type(v) is int for row in rows for v in row)
        full = [((1,) * 6, "=", 1)]
        full += [(tuple(int(i == j) for j in range(6)), ">=", 0) for i in range(6)]
        full += [(row, ">=", 0) for row in rows]
        _same_polytope(out, eliminate_over_fractions(HPolytope(6, full), 5))


def test_referendum_district_polytope_equals_its_fraction_construction():
    for districts in range(3, 10):
        for k in range(districts + 1):
            rows = []
            for i in range(districts):
                e = tuple(int(j == i) for j in range(districts))
                if i < k:
                    rows += [(e, ">=", F(1, 2)), (e, "<=", 1)]
                else:
                    rows += [(e, ">=", 0), (e, "<=", F(1, 2))]
            rows.append(((1,) * districts, "<=", F(districts, 2)))
            _same_polytope(sc.referendum_district_polytope(districts, k),
                           HPolytope(districts, rows))

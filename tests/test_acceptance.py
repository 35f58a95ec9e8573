"""Acceptance suite: every headline number at its stated tolerance, one
printed pass/fail line per criterion.

Exact assertions are bit-exact rational comparisons; decimal assertions
allow 5e-6 (published tables are 5-decimal roundings) unless a looser
tolerance is stated inline.  Timed criteria assert their stated wall
budgets.
"""

import time
from fractions import Fraction as F

import pytest

import polyvote.socialchoice as sc
from polyvote.ehrhart import (
    BudgetExceededError,
    ehrhart_pipeline,
    period_bound,
    region_count,
)
from polyvote.linalg import decimal_string

from helpers import (
    MANIPULABLE_UNION_SERIES,
    UNION_CLASS_0,
    UNION_CLASS_1,
    UNION_CLASS_6,
    gf_coefficients,
    vertices,
)

DECIMAL_TOL = F(5, 10**6)
RULE_M = "lambda=37228/100000"


def prob(spec: str) -> F:
    return sc.probability_for_spec(spec).probability


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def close(value: F, text: str, tol: F = DECIMAL_TOL) -> bool:
    return abs(value - F(text)) <= tol


@pytest.fixture(scope="module")
def plurality_region():
    return sc.manipulability_event(sc.PLURALITY)


@pytest.fixture(scope="module")
def borda_region():
    return sc.manipulability_event(sc.BORDA)


def test_criterion_1_exact_volumes(borda_region):
    t0 = time.perf_counter()
    checks = [
        sc.share_space_polytope([]).volume() == F(1, 120),
        sc.condorcet_winner().volume() == F(1, 384),
        borda_region.terms[0][1].volume() == F(371, 559872),
        borda_region.terms[1][1].volume() == F(881, 6531840),
        borda_region.terms[2][1].volume() == F(170873, 1714608000),
    ]
    elapsed = time.perf_counter() - t0
    report("criterion 1 (exact volumes)", all(checks) and elapsed < 25,
           f"5 volumes in {elapsed:.2f}s, budget 5s each")


def test_criterion_2_manipulability(plurality_region, borda_region):
    t0 = time.perf_counter()
    plur_vol = 720 * plurality_region.volume()
    plur_lead = 720 * ehrhart_pipeline(
        plurality_region, classes=[0]
    ).leading_coefficient()
    borda = 720 * borda_region.volume()
    elapsed = time.perf_counter() - t0
    ok = (
        plur_vol == F(7, 24)
        and plur_lead == F(7, 24)
        and borda == F(132953, 264600)
        and elapsed < 30
    )
    report("criterion 2 (manipulability)", ok,
           f"volume and leading-coefficient routes in {elapsed:.1f}s")


def test_criterion_2b_borda_pipeline_budget_guard(borda_region):
    assert period_bound(borda_region) == 2520
    with pytest.raises(BudgetExceededError) as err:
        ehrhart_pipeline(borda_region, classes=[0])
    ok = err.value.required_counts is not None and err.value.candidates > 10**9
    report("criterion 2 addendum (scale guard on the coarse-period region)", ok,
           f"requires {err.value.required_counts} counts up to dilation {err.value.dilation}")


def test_criterion_3_plurality_quasipolynomial(plurality_region):
    t0 = time.perf_counter()
    q = ehrhart_pipeline(plurality_region, classes=[0, 6, 1])
    fit_elapsed = time.perf_counter() - t0
    coeffs_ok = (
        list(q.class_coefficients(0)) == UNION_CLASS_0
        and list(q.class_coefficients(6)) == UNION_CLASS_6
        and list(q.class_coefficients(1)) == UNION_CLASS_1
        and q.period == 12
    )

    t0 = time.perf_counter()
    by_enumeration = region_count(plurality_region, 96)
    enum_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    by_recurrence = gf_coefficients(MANIPULABLE_UNION_SERIES, 96).entries[96]
    rec_elapsed = time.perf_counter() - t0

    by_polynomial = q.evaluate(96)
    ok = (
        coeffs_ok
        and by_enumeration == 4176821
        and by_recurrence == 4176821
        and by_polynomial == 4176821
        and enum_elapsed < 600
        and rec_elapsed < 1
    )
    report(
        "criterion 3 (plurality quasipolynomial, f(96) three ways)", ok,
        f"fit {fit_elapsed:.1f}s, enumeration {enum_elapsed:.1f}s, "
        f"recurrence {rec_elapsed:.3f}s",
    )


TABLE1_PRINTED = {
    "P | C": "0.88148",
    "A | C": "0.62963",
    "B | C": "0.91111",
    "(A & B) | C": "0.61775",
    "(A & P) | C": "0.53040",
    "(B & P) | C": "0.81821",
    "B | (A & C)": "0.98113",
}


def test_criterion_4_condorcet():
    rows = {r.label: r.probability for r in sc.table_rows(1)}
    checks = [
        prob("condorcet-paradox") == F(1, 16),
        rows["P | C"] == F(119, 135),
        rows["B | C"] == F(41, 45),
        rows["A | C"] == F(17, 27),
    ]
    checks += [close(rows[label], text) for label, text in TABLE1_PRINTED.items()]
    # the eighth published decimal, 0.92282, contradicts its own row:
    # the joint and marginal entries force 0.81821/0.88148 = 0.92822
    consistency = rows["B | (P & C)"] == rows["(B & P) | C"] / rows["P | C"]
    checks.append(consistency)
    checks.append(close(rows["B | (P & C)"], "0.92822"))
    report(
        "criterion 4 (condorcet paradox and efficiencies)", all(checks),
        "7/8 published decimals; the eighth published entry transposes "
        "digits of the value its own row implies (see criterion 4b)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="published value 0.92282 is inconsistent with the published row "
    "marginals, which force 0.81821/0.88148 = 0.92822",
)
def test_criterion_4b_published_relative_efficiency_entry():
    rows = {r.label: r.probability for r in sc.table_rows(1)}
    assert close(rows["B | (P & C)"], "0.92282")


def test_criterion_5_borda_paradox():
    checks = [
        prob("condorcet-loser:plurality") == F(1, 36),
        prob("condorcet-loser:borda") == 0,
        prob("condorcet-loser:antiplurality") == F(17, 576),
        abs(prob(f"condorcet-loser:{RULE_M}") - F("0.00131")) <= F(2, 10**4),
    ]
    report("criterion 5 (pairwise-loser elections)", all(checks))


def test_criterion_6_agreement():
    checks = [
        prob("agreement:plurality,antiplurality:winner") == F(113, 216),
        prob("agreement:plurality,borda:winner") == F(89, 108),
        prob("agreement:antiplurality,borda:winner") == F(1039, 1512),
        prob("joint-efficiency:antiplurality,plurality") == F(3437, 6480),
        sc.cyclic_agreement_probability() == F(5, 10368),
        sc.all_rules_agree_probability() == F(10631, 20736),
        prob("agreement:plurality,antiplurality:ranking") == F(8, 27),
        prob("agreement:plurality,borda:ranking") == F(61, 108),
        F(3437, 6480) * F(15, 16) + F(5, 324) == F(10631, 20736),
    ]
    table3 = {r.label: r.probability for r in sc.table_rows(3)}
    printed3 = {
        "antiplurality and borda elect the same winner": "0.68717",
        "antiplurality and borda agree on the full ranking": "0.56481",
        "antiplurality and plurality elect the same winner": "0.52315",
        "antiplurality and plurality agree on the full ranking": "0.29630",
        "plurality and borda elect the same winner": "0.82407",
        "plurality and borda agree on the full ranking": "0.56481",
        "all common rules elect the same winner": "0.51268",
    }
    checks += [close(table3[label], text) for label, text in printed3.items()]
    report("criterion 6 (agreement probabilities)", all(checks))


def test_criterion_7_participation():
    borda_exact = [
        prob("participation:borda:PPP") == F(1, 72),
        prob("participation:borda:NPP") == F(1, 48),
        prob("participation:borda:PAP") == F(1, 96),
        prob("participation:borda:NAP") == F(1, 72),
    ]
    zeros = [
        prob("participation:plurality:PPP") == 0,
        prob("participation:plurality:PAP") == 0,
        prob("participation:antiplurality:NPP") == 0,
        prob("participation:antiplurality:NAP") == 0,
    ]
    decimals = [
        close(prob("participation:plurality:NPP"), "0.07292"),
        close(prob("participation:plurality:NAP"), "0.04080"),
        close(prob("participation:antiplurality:PPP"), "0.03822"),
        close(prob("participation:antiplurality:PAP"), "0.04253"),
    ]
    report("criterion 7 (participation paradoxes)",
           all(borda_exact + zeros + decimals))


def test_criterion_8_referendum():
    # won districts have shares in [1/2, 1]; each value equals the
    # Irwin-Hall closed form 2 * sum_k C(N,k) * IH_N(N-k) / 2^N
    t0 = time.perf_counter()
    nine = sc.referendum_probability(9)
    elapsed = time.perf_counter() - t0
    checks = [
        sc.referendum_probability(3) == F(1, 8),
        sc.referendum_probability(4) == F(1, 48),
        sc.referendum_probability(5) == F(55, 384),
        sc.referendum_probability(6) == F(73, 1920),
        sc.referendum_probability(7) == F(577, 3840),
        nine == F(1589879, 10321920),
        elapsed < 60,
    ]
    report("criterion 8 (referendum paradox)", all(checks),
           f"9 districts in {elapsed:.1f}s, budget 60s")


@pytest.mark.xfail(
    strict=True,
    reason="the printed 0.04063 (N = 6) and 0.26954 (N = 9) are the volumes "
    "of district polytopes without the cap x_i <= 1 on won districts "
    "(13/320 at N = 6); the stated model, per-district shares uniform on "
    "[0, 1], gives 73/1920 = 0.03802 and 1589879/10321920 = 0.15403, equal "
    "to the Irwin-Hall closed form, and a Monte Carlo estimate at N = 5 "
    "reads 0.1418 against 55/384 = 0.14323 capped and 61/384 = 0.15885 "
    "uncapped",
)
def test_criterion_8b_published_referendum_decimals():
    assert close(sc.referendum_probability(6), "0.04063")
    assert close(sc.referendum_probability(9), "0.26954")


def test_criterion_9_rule_m():
    efficiency = prob(f"condorcet-efficiency:{RULE_M}")
    joint = prob(f"joint-efficiency:{RULE_M},borda")
    checks = [
        abs(efficiency - F("0.92546")) <= F(1, 1000),
        abs(joint - F("0.89183")) <= F(1, 1000),
    ]
    report("criterion 9 (most Condorcet-efficient positional rule)", all(checks),
           f"efficiency {decimal_string(efficiency)}, joint {decimal_string(joint)}")


def test_criterion_10_property_suite():
    # the full 100-polytope run and the identity checks live in
    # test_properties.py; a fresh independent sample keeps this criterion
    # self-contained
    import test_properties as props

    polys = props._sample_polytopes(12, dims=(2, 3, 4), max_period=3, seed=1234)
    leading_ok = all(
        ehrhart_pipeline(p, classes=[0]).leading_coefficient() == p.volume()
        for p in polys
    )
    report(
        "criterion 10 (randomized property suite)", leading_ok,
        "12-polytope spot check here; 100-polytope run in test_properties.py",
    )


def test_criterion_11_vertex_diagnostics(borda_region):
    favor_b, favor_c, both = (p for _, p in borda_region.terms)
    agree, _ = sc.agreement_event(sc.PLURALITY, sc.ANTIPLURALITY, "winner")
    agree_cond = agree.intersect(sc.condorcet_winner())
    checks = [
        period_bound(favor_b) == 72,
        period_bound(favor_c) == 504,
        period_bound(both) == 1260,
        len(vertices(agree)) == 18,
        len(vertices(agree_cond)) == 29,
    ]
    report("criterion 11 (vertex diagnostics)", all(checks))

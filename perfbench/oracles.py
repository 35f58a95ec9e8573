"""Reference values computed without any polyvote code.

Every figure the benchmark checks comes from here: closed forms for the
referendum model, a linear recurrence for the plurality manipulability
series, and literature values for the IAC events.  ``self_check`` runs
each closed form on cases with a known answer; ``run.py`` calls it
before measuring and refuses to report a result if it fails.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# ---------------------------------------------------------------------------
# referendum model: N equal districts, candidate a's share uniform on [0, 1]
# in each, independently


def irwin_hall_cdf(n: int, t: Fraction) -> Fraction:
    """P(U_1 + ... + U_n <= t) for independent uniforms on [0, 1]."""
    t = Fraction(t)
    if t <= 0:
        return Fraction(0)
    if t >= n:
        return Fraction(1)
    total = sum(
        (-1) ** j * comb(n, j) * (t - j) ** n for j in range(int(t) + 1)
    )
    return total / factorial(n)


def district_volume(districts: int, won: int) -> Fraction:
    """Volume of {won shares in [1/2, 1], lost shares in [0, 1/2],
    total <= N/2}: after x -> 2x - 1 on won and x -> 2x on lost
    districts it is the Irwin-Hall mass below N - k, scaled by 2^-N."""
    return irwin_hall_cdf(districts, Fraction(districts - won)) / 2**districts


def referendum_probability(districts: int) -> Fraction:
    """2 * sum_k C(N, k) * 2^-N * IH_N(N - k) over majorities k < N."""
    return 2 * sum(
        comb(districts, k) * district_volume(districts, k)
        for k in range(districts // 2 + 1, districts)
    )


def uniform_sum_moment(terms: int, power: int) -> Fraction:
    """E[(U_1 + ... + U_m)^p] for m independent uniforms on [0, 1]."""
    moments = [Fraction(1)] + [Fraction(0)] * power  # m = 0: the sum is 0
    for _ in range(terms):
        moments = [
            sum(comb(p, i) * Fraction(1, i + 1) * moments[p - i] for i in range(p + 1))
            for p in range(power + 1)
        ]
    return moments[power]


def uncapped_referendum_probability(districts: int) -> Fraction:
    """The same sum over the polytope without the cap x_i <= 1 on won
    districts.  With y = x - 1/2 on won districts the slack N/2 - sum(x)
    is unbounded only through y, so each term integrates s^k / k! over
    the lost shares: 2^-N / k! * E[(sum of N - k uniforms)^k]."""
    return 2 * sum(
        comb(districts, k) * uniform_sum_moment(districts - k, k)
        / (factorial(k) * 2**districts)
        for k in range(districts // 2 + 1, districts)
    )


# ---------------------------------------------------------------------------
# plurality manipulability: Ehrhart series of the union region (favor_b +
# favor_c - both, sincere ranking a > b > c), as a rational generating
# function P(t)/Q(t) with Q given by factors (ascending coefficients, power)

MANIPULABLE_NUMERATOR = (1, 2, 6, 14, 33, 50, 73, 74, 78, 68, 57, 32, 16)
MANIPULABLE_DENOMINATOR = (
    ((1, 0, 0, 0, -1), 3),
    ((1, -1), 2),
    ((1, 0, -1), 1),
    ((1, 1, 1), 4),
)
# lattice count of the 96-fold dilation, by enumeration and by the series
MANIPULABLE_COUNT_96 = 4176821
# 720 = 5! * 6 relabelings: the leading coefficient times 720 is the
# limiting probability of plurality manipulability
MANIPULABLE_PROBABILITY = Fraction(7, 24)


def _int_poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def series_coefficients(numerator, denominator_factors, upto: int) -> list[int]:
    """Maclaurin coefficients a_0..a_upto of P(t)/Q(t), Q(0) = 1, from
    Q(t) * sum a_n t^n = P(t): a_n = p_n - sum_{k>=1} q_k a_{n-k}."""
    q = [1]
    for factor, power in denominator_factors:
        for _ in range(power):
            q = _int_poly_mul(q, list(factor))
    if q[0] != 1:
        raise ValueError("denominator must have constant term 1")
    a: list[int] = []
    for n in range(upto + 1):
        value = numerator[n] if n < len(numerator) else 0
        for k in range(1, min(n, len(q) - 1) + 1):
            value -= q[k] * a[n - k]
        a.append(value)
    return a


def manipulable_counts(upto: int) -> list[int]:
    return series_coefficients(MANIPULABLE_NUMERATOR, MANIPULABLE_DENOMINATOR, upto)


# ---------------------------------------------------------------------------
# IAC events, three candidates, large-electorate limits (sources in README)

LITERATURE = {
    "condorcet-paradox": Fraction(1, 16),
    "condorcet-efficiency:plurality": Fraction(119, 135),
    "condorcet-efficiency:borda": Fraction(41, 45),
    "condorcet-efficiency:antiplurality": Fraction(17, 27),
    "manipulable:plurality": Fraction(7, 24),
    "manipulable:borda": Fraction(132953, 264600),
    "manipulable:antiplurality": Fraction(14, 27),
}

# the source paper's tables 1-4, keyed by table number and row label:
# exact values where the paper states one, otherwise its 5-place decimal
PAPER_EXACT = {
    (1, "P | C"): LITERATURE["condorcet-efficiency:plurality"],
    (1, "B | C"): LITERATURE["condorcet-efficiency:borda"],
    (1, "A | C"): LITERATURE["condorcet-efficiency:antiplurality"],
    (2, "plurality"): Fraction(1, 36),
    (2, "borda"): Fraction(0),
    (2, "antiplurality"): Fraction(17, 576),
    (3, "antiplurality and borda elect the same winner"): Fraction(1039, 1512),
    (3, "antiplurality and plurality elect the same winner"): Fraction(113, 216),
    (3, "antiplurality and plurality agree on the full ranking"): Fraction(8, 27),
    (3, "plurality and borda elect the same winner"): Fraction(89, 108),
    (3, "plurality and borda agree on the full ranking"): Fraction(61, 108),
    (3, "all common rules elect the same winner"): Fraction(10631, 20736),
    (4, "plurality runoff PPP"): Fraction(0),
    (4, "plurality runoff PAP"): Fraction(0),
    (4, "borda runoff PPP"): Fraction(1, 72),
    (4, "borda runoff NPP"): Fraction(1, 48),
    (4, "borda runoff PAP"): Fraction(1, 96),
    (4, "borda runoff NAP"): Fraction(1, 72),
    (4, "antiplurality runoff NPP"): Fraction(0),
    (4, "antiplurality runoff NAP"): Fraction(0),
}
PAPER_DECIMAL = {
    (1, "P | C"): "0.88148",
    (1, "A | C"): "0.62963",
    (1, "B | C"): "0.91111",
    (1, "(A & B) | C"): "0.61775",
    (1, "(A & P) | C"): "0.53040",
    (1, "(B & P) | C"): "0.81821",
    (1, "B | (A & C)"): "0.98113",
    (2, "rule M"): "0.00131",
    (3, "antiplurality and borda elect the same winner"): "0.68717",
    (3, "antiplurality and borda agree on the full ranking"): "0.56481",
    (3, "antiplurality and plurality elect the same winner"): "0.52315",
    (3, "antiplurality and plurality agree on the full ranking"): "0.29630",
    (3, "plurality and borda elect the same winner"): "0.82407",
    (3, "plurality and borda agree on the full ranking"): "0.56481",
    (3, "all common rules elect the same winner"): "0.51268",
    (4, "plurality runoff NPP"): "0.07292",
    (4, "plurality runoff NAP"): "0.04080",
    (4, "antiplurality runoff PPP"): "0.03822",
    (4, "antiplurality runoff PAP"): "0.04253",
}
DECIMAL_TOL = Fraction(5, 10**6)
# rule M uses the rational weight 37228/100000 in place of an irrational
# optimum, so its printed digits hold only to this looser tolerance
DECIMAL_TOL_OVERRIDE = {(2, "rule M"): Fraction(2, 10**4)}
# the paper prints 0.92282 for B | (P & C), a transposition of the value
# its own row forces; the row is checked by that identity instead
TRANSPOSED_ROW = (1, "B | (P & C)", "(B & P) | C", "P | C")
TABLE_ROWS = {1: 8, 2: 4, 3: 7, 4: 12}


def self_check() -> list[str]:
    """Run each oracle on cases with an independently known answer;
    returns the failures (empty when every oracle is sound)."""
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{what}: got {got}, expected {want}")

    for n in range(1, 9):
        expect(f"IH_{n}(1)", irwin_hall_cdf(n, 1), Fraction(1, factorial(n)))
        expect(f"IH_{n}(n/2)", irwin_hall_cdf(n, Fraction(n, 2)), Fraction(1, 2))
        expect(f"IH_{n}(n)", irwin_hall_cdf(n, n), Fraction(1))
    expect("IH_1(1/3)", irwin_hall_cdf(1, Fraction(1, 3)), Fraction(1, 3))
    for n, want in ((3, Fraction(1, 8)), (4, Fraction(1, 48)),
                    (5, Fraction(55, 384)), (6, Fraction(73, 1920))):
        expect(f"referendum N={n}", referendum_probability(n), want)
    expect("E[S_1^4]", uniform_sum_moment(1, 4), Fraction(1, 5))
    expect("E[S_3^1]", uniform_sum_moment(3, 1), Fraction(3, 2))
    expect("E[S_2^2]", uniform_sum_moment(2, 2), Fraction(7, 6))
    # a won share passes 1 only when N - k >= 2 lost districts leave it
    # more than 1/2 of slack, which first happens at N = 5
    for n in (3, 4):
        expect(f"uncapped N={n}", uncapped_referendum_probability(n),
               referendum_probability(n))
    # 1/(1-t)^6 counts lattice points of the dilated standard 5-simplex
    simplex = series_coefficients((1,), (((1, -1), 6),), 20)
    expect("simplex series", simplex, [comb(n + 5, 5) for n in range(21)])
    counts = manipulable_counts(96)
    expect("manipulable a_0", counts[0], 1)
    expect("manipulable a_96", counts[96], MANIPULABLE_COUNT_96)
    return bad

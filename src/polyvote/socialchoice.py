"""Three-candidate election events as share-space polytopes, and their
limiting probabilities under the Impartial Anonymous Culture model.

Voting situations are counted by the six preference orders abc, acb,
bac, bca, cab, cba; coordinates x_1..x_6 are the corresponding voter
shares, so events live on the simplex sum(x_i) = 1, x_i >= 0.  Every
event compiles to homogeneous integer rows in the full 6-dimensional
space: a scoring rule with weights (1, lam, 0), lam = p/q, scores with
the integer weights (q, p, 0), and a row that weighs terms by lam and
1 - lam weighs them by p and q - p instead, a positive multiple of the
rational row.  Substituting x_6 = 1 - (x_1+..+x_5) turns them into
integer rows of a polytope over x_1..x_5 bounded by the standard
inequalities (x_i >= 0 and x_1+..+x_5 <= 1, a simplex of volume 1/120).  A limiting probability is the event volume over 1/120,
times the number of equally likely candidate relabelings the compiled
polytope stands for.  Every row is built from candidate names
(``scoring_vector``, ``pairwise_vector``), so a relabeled event is the
same builder called with other names.

Events are named by spec strings such as ``manipulable:borda``; the
registry ``EVENT_SPECS`` maps each spec kind and argument form to the
builder that evaluates it, and :func:`probability_for_spec` is the one
reader of that grammar.

Evaluated events and the builders shared across specs
(``scoring_vector``, ``pairwise_vector``, ``rule_winner_conditions``,
``rule_ranking_conditions``, ``condorcet_winner``, ``condorcet_loser``)
are memoized per process in bounded LRU caches, keyed on the parsed
spec form and arguments or on the builder's arguments; each returns an
immutable tuple or ``HPolytope``.  Failures are never memoized.  The
geometry below keeps its own per-polytope memo of vertices and volumes.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import comb

from .polytope import LE, EventRegion, GeometryError, HPolytope, _integer_row

ORDERS = ("abc", "acb", "bac", "bca", "cab", "cba")
CANDIDATES = ("a", "b", "c")

SIMPLEX_VOLUME = Fraction(1, 120)

# number of equally likely label permutations a compiled polytope represents:
# 6 when a full ranking is fixed, 3 when only the winner's label is fixed
FACTOR_RANKING = 6
FACTOR_WINNER = 3
_VALID_FACTORS = (1, 3, 6)

Row = tuple[int, ...]


# ---------------------------------------------------------------------------
# share-space primitives


@functools.lru_cache(maxsize=4096)
def scoring_vector(candidate: str, lam: Fraction) -> Row:
    """Per-order points the candidate receives under weights (q, p, 0),
    q times the weights (1, lam, 0) for lam = p/q."""
    weights = (lam.denominator, lam.numerator, 0)
    return tuple(weights[order.index(candidate)] for order in ORDERS)


@functools.lru_cache(maxsize=4096)
def pairwise_vector(x: str, y: str) -> Row:
    """Per-order +-1 margin contribution of x against y."""
    return tuple(1 if order.index(x) < order.index(y) else -1 for order in ORDERS)


def _sub(u: Row, v: Row, s: int = 1, t: int = 1) -> Row:
    """The integer combination s * u - t * v."""
    return tuple(s * a - t * b for a, b in zip(u, v))


def _unit(i: int) -> Row:
    return tuple(int(j == i) for j in range(6))


# x_i >= 0 for i <= 5, and x_6 = 1 - (x_1 + ... + x_5) >= 0
_SIMPLEX_ROWS = tuple(
    (tuple(-int(i == j) for j in range(5)), LE, 0) for i in range(5)
) + (((1,) * 5, LE, 1),)


def share_space_polytope(rows: list[Row]) -> HPolytope:
    """Compile homogeneous integer rows (each meaning row . x >= 0 on the
    share simplex) into the reduced 5-dimensional polytope.

    x_6 = 1 - (x_1 + ... + x_5) is substituted: c . x >= 0 becomes
    (c_6 - c_i)_i . x <= c_6.  The standard inequalities of the reduced
    simplex are added.  The eliminated coefficient is 1, so dilation
    lattice counts are preserved.
    """
    out = list(_SIMPLEX_ROWS)
    for c in rows:
        out.append(_integer_row([c[5] - a for a in c[:5]], LE, c[5]))
    return HPolytope._from_rows(5, out)


# ---------------------------------------------------------------------------
# rules


class ScoringRule(namedtuple("ScoringRule", "lam")):
    """Positional rule with weights (1, lam, 0)."""

    __slots__ = ()

    def __new__(cls, lam):
        lam = Fraction(lam)
        if not 0 <= lam <= 1:
            raise ValueError("scoring weight lam must lie in [0, 1]")
        return super().__new__(cls, lam)

    @property
    def name(self) -> str:
        if self.lam == 0:
            return "plurality"
        if self.lam == Fraction(1, 2):
            return "borda"
        if self.lam == 1:
            return "antiplurality"
        return f"lambda={self.lam}"


PLURALITY = ScoringRule(Fraction(0))
BORDA = ScoringRule(Fraction(1, 2))
ANTIPLURALITY = ScoringRule(Fraction(1))
_NAMED_RULES = {r.name: r for r in (PLURALITY, BORDA, ANTIPLURALITY)}


def rule_from_token(token: str) -> ScoringRule:
    token = token.strip().lower()
    if token in _NAMED_RULES:
        return _NAMED_RULES[token]
    if token.startswith("lambda="):
        value = token.split("=", 1)[1]
        try:
            lam = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        return ScoringRule(lam)
    raise ValueError(f"unknown scoring rule {token!r}")


# ---------------------------------------------------------------------------
# basic events


@functools.lru_cache(maxsize=4096)
def rule_winner_conditions(rule: ScoringRule) -> HPolytope:
    """Candidate a scores at least b and at least c (factor 3 event)."""
    sa = scoring_vector("a", rule.lam)
    rows = [_sub(sa, scoring_vector("b", rule.lam)),
            _sub(sa, scoring_vector("c", rule.lam))]
    return share_space_polytope(rows)


def _ranking_rows(rule: ScoringRule, order: str = "abc") -> list[Row]:
    """The rows s_x - s_y >= 0 and s_y - s_z >= 0 of the rule's scores,
    for the ranking x > y > z named by ``order``."""
    sx, sy, sz = (scoring_vector(c, rule.lam) for c in order)
    return [_sub(sx, sy), _sub(sy, sz)]


@functools.lru_cache(maxsize=4096)
def rule_ranking_conditions(rule: ScoringRule) -> HPolytope:
    """Scores order the candidates a >= b >= c (factor 6 event)."""
    return share_space_polytope(_ranking_rows(rule))


def _others(candidate: str) -> list[str]:
    if candidate not in CANDIDATES:
        raise ValueError(f"unknown candidate {candidate!r}")
    return [c for c in CANDIDATES if c != candidate]


@functools.lru_cache(maxsize=4096)
def condorcet_winner(candidate: str = "a") -> HPolytope:
    """The candidate beats both others in pairwise majority comparisons."""
    return share_space_polytope([pairwise_vector(candidate, o) for o in _others(candidate)])


@functools.lru_cache(maxsize=4096)
def condorcet_loser(candidate: str = "a") -> HPolytope:
    """The candidate loses both pairwise comparisons."""
    return share_space_polytope([pairwise_vector(o, candidate) for o in _others(candidate)])


# ---------------------------------------------------------------------------
# coalitional manipulability (fixed sincere ranking a > b > c, factor 6)


def _strategic_rows(rule: ScoringRule, x: str) -> list[Row]:
    """Conditions under which the voters preferring x (b or c) to the
    sincere winner a can misreport so that x wins; y is the third
    candidate.

    Score with the weights (q, p, 0) of lam = p/q.  The coalition, of
    share w, ranks x first, which never lowers x against a or y.  Let
    S_z be z's score from the voters outside the coalition and
    X = S_x + q * w.  The coalition gives its second places to a (an
    amount alpha in [0, w]) and to y (the rest), so x wins iff
    X >= S_a + p * alpha and X >= S_y + p * (w - alpha).  Eliminating
    alpha leaves X - S_a >= 0, X - S_y >= 0 and, when p > 0,
    2X - S_a - S_y - p * w >= 0; at p = 0 alpha drops out.
    """
    lam = rule.lam
    y = "c" if x == "b" else "b"
    coalition = tuple(int(order.index(x) < order.index("a")) for order in ORDERS)
    s_a, s_x, s_y = (tuple(s * (1 - u) for s, u in zip(scoring_vector(z, lam), coalition))
                     for z in ("a", x, y))
    big_x = tuple(s + lam.denominator * u for s, u in zip(s_x, coalition))
    rows = [_sub(big_x, s_a), _sub(big_x, s_y)]
    if lam.numerator:
        rows.append(tuple(u + v - lam.numerator * c for u, v, c in zip(*rows, coalition)))
    return rows


def manipulability_event(rule: ScoringRule) -> EventRegion:
    """Signed union of the regions where a coalition can make b, or c,
    win instead of the sincere winner a, for any positional rule.

    Both sides keep the sincere ranking rows a > b > c; only the
    strategic rows name b or c as the coalition's favourite.
    """
    sincere = _ranking_rows(rule)
    strategic_b = _strategic_rows(rule, "b")
    strategic_c = _strategic_rows(rule, "c")
    favor_b = share_space_polytope(sincere + strategic_b)
    favor_c = share_space_polytope(sincere + strategic_c)
    both = share_space_polytope(sincere + strategic_b + strategic_c)
    return EventRegion(((1, favor_b), (1, favor_c), (-1, both)))


# ---------------------------------------------------------------------------
# probabilities


def iac_probability(target, factor: int) -> Fraction:
    """Limiting probability: factor * volume / (simplex volume 1/120).

    ``target`` is an HPolytope or an EventRegion in the reduced share
    space.  Whether the result lies in [0, 1] is checked once, by
    :func:`probability_for_spec`.
    """
    if factor not in _VALID_FACTORS:
        raise ValueError(f"symmetry factor must be one of {_VALID_FACTORS}")
    return factor * target.volume() / SIMPLEX_VOLUME


def conditional_probability(event, given) -> Fraction:
    """volume(event intersect given) / volume(given)."""
    if isinstance(event, HPolytope):
        event = EventRegion.of(event)
    if isinstance(given, HPolytope):
        given = EventRegion.of(given)
    denom = given.volume()
    if denom == 0:
        raise GeometryError("conditioning event has zero volume")
    return event.intersect(given).volume() / denom


# ---------------------------------------------------------------------------
# agreement between rules


def agreement_event(rule1: ScoringRule, rule2: ScoringRule, mode: str):
    """Both rules pick winner a (mode "winner", factor 3) or both rank
    a >= b >= c (mode "ranking", factor 6)."""
    if mode == "winner":
        poly = rule_winner_conditions(rule1).intersect(rule_winner_conditions(rule2))
        return poly, FACTOR_WINNER
    if mode == "ranking":
        poly = rule_ranking_conditions(rule1).intersect(rule_ranking_conditions(rule2))
        return poly, FACTOR_RANKING
    raise ValueError("mode must be 'winner' or 'ranking'")


def _agreement_label(rule1, rule2, mode):
    what = "elect the same winner" if mode == "winner" else "agree on the full ranking"
    return f"{rule1.name} and {rule2.name} {what}"


def cyclic_agreement_probability() -> Fraction:
    """Volume ratio, over the simplex, of the cases where the pairwise
    comparisons form a cycle and plurality and antiplurality (hence all
    positional rules) rank the candidates in one fixed way, summed over
    the two cycle orientations.

    Each orientation contributes one ranking class only: a > b > c for
    the cycle a > b > c > a, and its b <-> c relabeling, a > c > b for
    the reverse cycle.  The other common rankings, and the cases where
    the rules share a winner but not a full ranking, are not counted
    here."""
    volume = 0
    for order in ("abc", "acb"):
        rows = [pairwise_vector(x, y) for x, y in zip(order, order[1:] + order[0])]
        for rule in (PLURALITY, ANTIPLURALITY):
            rows += _ranking_rows(rule, order)
        volume += share_space_polytope(rows).volume()
    return volume / SIMPLEX_VOLUME


# label permutations the cyclic agreement case stands for
CYCLIC_CASE_MULTIPLIER = 32


def all_rules_agree_probability() -> Fraction:
    """All positional rules and every Condorcet-consistent rule elect
    the same candidate: the conditional part when a pairwise-majority
    winner exists, plus the cyclic-case contribution.  Score vectors are
    convex combinations of the plurality and antiplurality ones, so all
    positional rules agree exactly when those two extremes do."""
    both = rule_winner_conditions(PLURALITY).intersect(
        rule_winner_conditions(ANTIPLURALITY)
    )
    with_winner = conditional_probability(both, condorcet_winner()) * iac_probability(
        condorcet_winner(), FACTOR_WINNER
    )
    return with_winner + CYCLIC_CASE_MULTIPLIER * cyclic_agreement_probability()


# ---------------------------------------------------------------------------
# participation and abstention paradoxes for scoring runoff rules


PARADOXES = ("PPP", "NPP", "PAP", "NAP")


def participation_event(rule: ScoringRule, paradox: str) -> HPolytope:
    """Voting situations where a scoring-runoff election (first stage
    weights (1, lam, 0), lowest score eliminated, pairwise runoff) can
    be upset by voters joining or leaving.

    Fixing candidate roles (factor 6 overall):

    PPP  a wins (c scores last, a beats b in the runoff); w voters with
         order acb join, lifting c past b at rate lam per ballot while
         eating the c-over-a runoff margin at rate 1.  Possible iff
         s_b - s_c <= lam * m_ca.
    NPP  c wins (b scores last, c beats a in the runoff); w voters with
         order bca join, lifting b past c at rate 1-lam while c must
         stay below a (rate lam) and the joiners eat a's runoff margin
         over b at rate 1.
    PAP  c wins as in NPP; removing w of the acb voters drops c below b
         at rate lam, keeps c below a at rate 1-lam, eats a's runoff
         margin over b at rate 1, and is capped by the acb share.
    NAP  a wins as in PPP; removing w of the bca voters drops b below c
         at rate 1-lam, eats c's runoff margin over a at rate 1, and is
         capped by the bca share.

    The first-stage conditions require only that the eliminated
    candidate scores (weakly) last; the original winner is fixed by the
    runoff comparison, not by the score order of the two finalists.

    With lam = p/q the scores carry the factor q, so the rates lam and
    1 - lam become p and q - p: each row is q (or q^2) times the row
    with rational rates.
    """
    p, q = rule.lam.numerator, rule.lam.denominator
    sa, sb, sc = (scoring_vector(c, rule.lam) for c in CANDIDATES)
    m_ab = pairwise_vector("a", "b")
    m_ca = pairwise_vector("c", "a")
    if paradox == "PPP":
        rows = [
            _sub(sa, sc), _sub(sb, sc), m_ab, m_ca,
            _sub(m_ca, _sub(sb, sc), p),
        ]
    elif paradox == "NAP":
        rows = [
            _sub(sa, sc), _sub(sb, sc), m_ab, m_ca,
            _sub(m_ca, _sub(sb, sc), q - p),
            _sub(_unit(3), _sub(sb, sc), q - p),
        ]
    elif paradox == "NPP":
        rows = [
            _sub(sa, sb), _sub(sc, sb), m_ca, m_ab,
            _sub(_sub(sa, sc), _sub(sc, sb), q - p, p),
            _sub(m_ab, _sub(sc, sb), q - p),
        ]
    elif paradox == "PAP":
        rows = [
            _sub(sa, sb), _sub(sc, sb), m_ca, m_ab,
            _sub(_unit(1), _sub(sc, sb), p),
            _sub(_sub(sa, sc), _sub(sc, sb), p, q - p),
            _sub(m_ab, _sub(sc, sb), p),
        ]
    else:
        raise ValueError(f"paradox must be one of {PARADOXES}")
    return share_space_polytope(rows)


# ---------------------------------------------------------------------------
# referendum (compound majority) paradox


def referendum_district_polytope(districts: int, k: int) -> HPolytope:
    """Candidate a takes districts 1..k outright (share in [1/2, 1]
    each), loses the rest (share in [0, 1/2]), yet b holds the overall
    popular majority."""
    rows = []
    for i in range(districts):
        e = [int(j == i) for j in range(districts)]
        if i < k:
            rows.append(_integer_row([-2 * v for v in e], LE, -1))
            rows.append(_integer_row(e, LE, 1))
        else:
            rows.append(_integer_row([-v for v in e], LE, 0))
            rows.append(_integer_row([2 * v for v in e], LE, 1))
    rows.append(_integer_row([2] * districts, LE, districts))
    return HPolytope._from_rows(districts, rows)


def referendum_probability(districts: int) -> Fraction:
    """Probability that the winner of a majority of equal districts
    loses the overall popular vote, per-district shares uniform."""
    if districts < 3:
        raise ValueError("need at least 3 districts")
    total = Fraction(0)
    for k in range(districts // 2 + 1, districts):
        vol = referendum_district_polytope(districts, k).volume()
        total += 2 * comb(districts, k) * vol
    return total


# ---------------------------------------------------------------------------
# the most Condorcet-efficient positional rule ("rule M")


# a rational approximation of the optimal weight; the exact optimum is an
# algebraic irrational, so rule M values are only as accurate as this
RULE_M_LAMBDA = Fraction(37228, 100000)


# ---------------------------------------------------------------------------
# event specs: one registry maps each spec kind and argument form to the
# builder that evaluates it


EventResult = namedtuple("EventResult", "label spec probability")


def _rule_pair(sep: str):
    def parse(token: str) -> tuple[ScoringRule, ScoringRule]:
        tokens = token.split(sep)
        if len(tokens) != 2:
            raise ValueError(f"expected two rules separated by {sep!r}")
        return rule_from_token(tokens[0]), rule_from_token(tokens[1])
    return parse


def _one_of(options: tuple[str, ...]):
    def parse(token: str) -> str:
        if token not in options:
            raise ValueError(f"expected one of {'|'.join(options)}")
        return token
    return parse


def _district_count(token: str) -> int:
    if not token.startswith("N="):
        raise ValueError("expected N=INT")
    return int(token[2:])


# how each argument form appearing in a spec is read
ARGUMENT_FORMS = {
    "RULE": rule_from_token,
    "RULE,RULE": _rule_pair(","),
    "RULE|RULE": _rule_pair("|"),
    "winner|ranking": _one_of(("winner", "ranking")),
    "|".join(PARADOXES): _one_of(PARADOXES),
    "N=INT": _district_count,
}


class SpecForm(namedtuple("SpecForm", "kind fields build")):
    """One argument form of a spec kind: the spec ``kind``, the argument
    forms ``fields`` and ``build``, which takes the parsed arguments and
    returns the row label and the exact probability; its docstring says
    what the event is."""

    __slots__ = ()

    @property
    def usage(self) -> str:
        return ":".join((self.kind,) + self.fields)


EVENT_SPECS: dict[str, list[SpecForm]] = {}


def _event(kind: str, *fields: str):
    def register(build):
        EVENT_SPECS.setdefault(kind, []).append(SpecForm(kind, fields, build))
        return build
    return register


@_event("manipulable", "RULE")
def _manipulable(rule):
    """A coalition preferring another candidate to the winner can make it win."""
    return (f"coalitional manipulability ({rule.name})",
            iac_probability(manipulability_event(rule), FACTOR_RANKING))


@_event("condorcet-winner")
def _condorcet_winner():
    """A pairwise-majority winner exists."""
    return ("a pairwise-majority winner exists",
            iac_probability(condorcet_winner(), FACTOR_WINNER))


@_event("condorcet-paradox")
def _condorcet_paradox():
    """No pairwise-majority winner exists."""
    return ("no pairwise-majority winner exists",
            1 - iac_probability(condorcet_winner(), FACTOR_WINNER))


@_event("condorcet-loser")
def _condorcet_loser():
    """A pairwise-majority loser exists."""
    return ("a pairwise-majority loser exists",
            iac_probability(condorcet_loser(), FACTOR_WINNER))


@_event("condorcet-loser", "RULE")
def _condorcet_loser_elected(rule):
    """The rule elects a candidate who loses every pairwise comparison."""
    region = rule_winner_conditions(rule).intersect(condorcet_loser())
    return f"{rule.name} elects the pairwise loser", iac_probability(region, FACTOR_WINNER)


@_event("condorcet-efficiency", "RULE")
def _condorcet_efficiency(rule):
    """The rule elects the pairwise-majority winner, given that one exists."""
    return (f"condorcet efficiency ({rule.name})",
            conditional_probability(rule_winner_conditions(rule), condorcet_winner()))


@_event("joint-efficiency", "RULE,RULE")
def _joint_efficiency(rules):
    """Both rules elect the pairwise-majority winner, given that one exists."""
    r1, r2 = rules
    both = rule_winner_conditions(r1).intersect(rule_winner_conditions(r2))
    return (f"{r1.name} and {r2.name} both elect the pairwise-majority winner",
            conditional_probability(both, condorcet_winner()))


@_event("relative-efficiency", "RULE|RULE")
def _relative_efficiency(rules):
    """The first rule elects the pairwise-majority winner, given that the second does."""
    r1, r2 = rules
    given = rule_winner_conditions(r2).intersect(condorcet_winner())
    return (f"{r1.name} elects the pairwise-majority winner when {r2.name} does",
            conditional_probability(rule_winner_conditions(r1), given))


@_event("rule-winner", "RULE")
def _rule_winner(rule):
    """Candidate a wins under the rule (1/3 by symmetry)."""
    return (f"candidate a wins under {rule.name}",
            iac_probability(rule_winner_conditions(rule), 1))


@_event("agreement", "RULE,RULE", "winner|ranking")
def _agreement(rules, mode):
    """The two rules elect the same winner, or produce the same full ranking."""
    poly, factor = agreement_event(*rules, mode)
    return _agreement_label(*rules, mode), iac_probability(poly, factor)


@_event("all-rules-agree")
def _all_rules_agree():
    """All positional rules and every Condorcet-consistent rule elect the same winner."""
    return "all common rules elect the same winner", all_rules_agree_probability()


@_event("participation", "RULE", "|".join(PARADOXES))
def _participation(rule, paradox):
    """The runoff of the rule shows the named participation or abstention paradox."""
    return (f"{paradox} for {rule.name} runoff",
            iac_probability(participation_event(rule, paradox), FACTOR_RANKING))


@_event("referendum", "N=INT")
def _referendum(districts):
    """The winner of a majority of N equal districts loses the popular vote."""
    return f"referendum paradox with {districts} districts", referendum_probability(districts)


def probability_for_spec(text: str) -> EventResult:
    """Evaluate a canonical event-spec string such as
    ``manipulable:borda``, ``condorcet-efficiency:lambda=1/2``,
    ``agreement:plurality,antiplurality:winner`` or ``referendum:N=7``;
    ``EVENT_SPECS`` lists every kind and argument form.  Every value
    returned has been checked to lie in [0, 1].

    The spec is parsed and validated on every call, and the [0, 1]
    check runs on every call.  The evaluated ``(label, probability)``
    is memoized per process, keyed on the parsed form and arguments,
    so ``condorcet-loser:plurality`` and ``condorcet-loser:lambda=0``
    share one entry while each result keeps the caller's spec text.
    A failure is never memoized: a spec that raises raises again on
    the next call.  The geometry below keeps its own per-polytope memo
    of vertices and volumes."""
    spec = text.strip()
    kind, *args = spec.split(":")
    if kind not in EVENT_SPECS:
        raise ValueError(f"unknown event spec {spec!r}")
    forms = EVENT_SPECS[kind]
    form = next((f for f in forms if len(f.fields) == len(args)), None)
    if form is None:
        usages = " or ".join(f.usage for f in forms)
        raise ValueError(f"spec {spec!r} does not match the form {usages}")
    try:
        values = tuple(ARGUMENT_FORMS[f](a) for f, a in zip(form.fields, args))
    except ValueError as exc:
        raise ValueError(f"spec {spec!r} does not match the form {form.usage}: {exc}") from None
    label, p = _evaluate(form, values)
    if not 0 <= p <= 1:
        raise GeometryError(f"{spec}: probability {p} escaped [0, 1]")
    return EventResult(label, spec, p)


@functools.lru_cache(maxsize=4096)
def _evaluate(form: SpecForm, values: tuple) -> tuple[str, Fraction]:
    """``(label, probability)`` of one parsed spec, memoized on the
    form and its parsed arguments; a builder that raises leaves no entry."""
    return form.build(*values)


# ---------------------------------------------------------------------------
# the summary tables


def _table_specs(number: int) -> list[tuple[str, str]]:
    """The (label, event spec) rows of one summary table."""
    if number == 1:
        return [
            ("P | C", "condorcet-efficiency:plurality"),
            ("A | C", "condorcet-efficiency:antiplurality"),
            ("B | C", "condorcet-efficiency:borda"),
            ("(A & B) | C", "joint-efficiency:antiplurality,borda"),
            ("(A & P) | C", "joint-efficiency:antiplurality,plurality"),
            ("(B & P) | C", "joint-efficiency:borda,plurality"),
            ("B | (P & C)", "relative-efficiency:borda|plurality"),
            ("B | (A & C)", "relative-efficiency:borda|antiplurality"),
        ]
    if number == 2:
        rules = (PLURALITY, ScoringRule(RULE_M_LAMBDA), BORDA, ANTIPLURALITY)
        return [("rule M" if rule.lam == RULE_M_LAMBDA else rule.name,
                 f"condorcet-loser:lambda={rule.lam}") for rule in rules]
    if number == 3:
        pairs = [(ANTIPLURALITY, BORDA), (ANTIPLURALITY, PLURALITY), (PLURALITY, BORDA)]
        rows = [(_agreement_label(r1, r2, mode), f"agreement:{r1.name},{r2.name}:{mode}")
                for r1, r2 in pairs for mode in ("winner", "ranking")]
        return rows + [("all common rules elect the same winner", "all-rules-agree")]
    if number == 4:
        return [(f"{rule.name} runoff {paradox}", f"participation:{rule.name}:{paradox}")
                for rule in (PLURALITY, BORDA, ANTIPLURALITY) for paradox in PARADOXES]
    if number == 5:
        return [(f"{n} districts", f"referendum:N={n}") for n in (3, 4, 5, 6, 7, 9)]
    raise ValueError("table number must be 1..5")


def table_rows(number: int) -> list[EventResult]:
    """Recompute one of the five summary tables from first principles.

    Every row is evaluated through :func:`probability_for_spec` on the
    spec it prints, so ``polyvote prob SPEC`` reproduces each row, and
    in the same process reads it back from the spec memo.  Evaluated
    events and the shared row builders are memoized per process, keyed
    on the parsed form and arguments; failures are never memoized, and
    the geometry below keeps its own per-polytope memo."""
    return [EventResult(label, spec, probability_for_spec(spec).probability)
            for label, spec in _table_specs(number)]

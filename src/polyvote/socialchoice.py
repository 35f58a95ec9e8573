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
inequalities (x_i >= 0 and x_1+..+x_5 <= 1, a simplex of volume 1/120).

Most events are weighted conjunctions of atoms, weak inequalities
between named candidates: ``score(x, y, rule)``, x scores at least as
much as y, and ``margin(x, y)``, x wins or ties its pairwise comparison
with y.  :func:`conjunction` compiles atoms to a polytope; the table
``FORMULAS`` writes each such spec kind as a label, the event's
``(weight, atoms)`` terms and the terms it is measured against.
``manipulability_event`` (whose sincere ranking is atoms),
``participation_event`` and ``referendum_district_polytope`` derive
their rows and stay builders.

Events are named by spec strings such as ``manipulable:borda``; the
registry ``EVENT_SPECS`` maps each spec kind and argument form to its
``FORMULAS`` row or builder, and :func:`probability_for_spec` is the
one reader of that grammar.  Each yields the event as an
``EventRegion`` of integer-weighted polytopes and the region it is
measured against: ``IAC``, the share simplex, for an IAC event, whose
weight 3 or 6 counts the equally likely relabelings its polytope
stands for (3 when it fixes the winner's label, 6 a full ranking); its
condition for a conditional event; None for the referendum, whose
district shares are uniform on a unit cube.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import comb

from .linalg import parse_integer, parse_rational
from .polytope import LE, EventRegion, GeometryError, HPolytope, _integer_row

ORDERS = ("abc", "acb", "bac", "bca", "cab", "cba")
CANDIDATES = ("a", "b", "c")
# each candidate's place (0, 1 or 2) in each order
_PLACES = {c: tuple(order.index(c) for order in ORDERS) for c in CANDIDATES}

Row = tuple[int, ...]


# ---------------------------------------------------------------------------
# share-space primitives


def scoring_vector(candidate: str, lam: Fraction) -> Row:
    """Per-order points the candidate receives under weights (q, p, 0),
    q times the weights (1, lam, 0) for lam = p/q."""
    return tuple(map((lam.denominator, lam.numerator, 0).__getitem__, _PLACES[candidate]))


def pairwise_vector(x: str, y: str) -> Row:
    """Per-order +-1 margin contribution of x against y."""
    return tuple(1 if u < v else -1 for u, v in zip(_PLACES[x], _PLACES[y]))


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


# what an IAC event is measured against: the share simplex
IAC = EventRegion.of(share_space_polytope([]))


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
        # the literal grammar of H-rep files: p or p/q, nothing else
        return ScoringRule(Fraction(*parse_rational(token.split("=", 1)[1])))
    raise ValueError(f"unknown scoring rule {token!r}")


# ---------------------------------------------------------------------------
# atoms: weak score and margin comparisons between named candidates


def score(x: str, y: str, rule=0) -> tuple:
    """The atom s_x >= s_y under ``rule``: a ``ScoringRule``, or i for a spec's i-th rule."""
    return ("score", x, y, rule)


def margin(x: str, y: str) -> tuple:
    """The atom m_xy >= 0: at least as many voters rank x over y as y over x."""
    return ("margin", x, y, None)


def _row(atom: tuple) -> Row:
    """The homogeneous row of an atom with a ``ScoringRule``: per order,
    x's points less y's under weights (q, p, 0), or x's +-1 margin over y."""
    kind, x, y, rule = atom
    if x not in CANDIDATES or y not in CANDIDATES:
        raise ValueError(f"unknown candidate {x if x not in CANDIDATES else y!r}")
    if kind == "margin":
        return pairwise_vector(x, y)
    weights = (rule.lam.denominator, rule.lam.numerator, 0)
    return tuple(weights[i] - weights[j] for i, j in zip(_PLACES[x], _PLACES[y]))


@functools.lru_cache(maxsize=4096)
def conjunction(atoms) -> HPolytope:
    """The share-space polytope on which every atom holds, for a tuple or
    frozenset of atoms; memoized, and an atom that raises leaves no entry."""
    return share_space_polytope([_row(atom) for atom in atoms])


def _wins(rule) -> tuple:
    """Candidate a scores at least as much as b and as c."""
    return score("a", "b", rule), score("a", "c", rule)


def _ranks(rule, order: str = "abc") -> tuple:
    """The scores order the candidates x >= y >= z for ``order`` xyz."""
    x, y, z = order
    return score(x, y, rule), score(y, z, rule)


# candidate a wins, or loses, both pairwise comparisons
_WINNER = (margin("a", "b"), margin("a", "c"))
_LOSER = (margin("b", "a"), margin("c", "a"))


def _cycle(order: str) -> tuple:
    """For ``order`` xyz, the pairwise comparisons cycle x > y > z > x and
    plurality and antiplurality (hence all positional rules) rank
    x >= y >= z, one ranking class per orientation; the other common
    rankings, and shared winners without a shared ranking, are not in it."""
    x, y, z = order
    cycle = (margin(x, y), margin(y, z), margin(z, x))
    return cycle + _ranks(PLURALITY, order) + _ranks(ANTIPLURALITY, order)


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
    sincere = [_row(atom) for atom in _ranks(rule)]
    strategic_b = _strategic_rows(rule, "b")
    strategic_c = _strategic_rows(rule, "c")
    favor_b = share_space_polytope(sincere + strategic_b)
    favor_c = share_space_polytope(sincere + strategic_c)
    both = share_space_polytope(sincere + strategic_b + strategic_c)
    return EventRegion(((1, favor_b), (1, favor_c), (-1, both)))


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


# ---------------------------------------------------------------------------
# the most Condorcet-efficient positional rule ("rule M")


# a rational approximation of the optimal weight; the exact optimum is an
# algebraic irrational, so rule M values are only as accurate as this
RULE_M_LAMBDA = Fraction(37228, 100000)


# ---------------------------------------------------------------------------
# event specs: one registry maps each spec kind and argument form to its builder


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
    return parse_integer(token[2:])


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
    returns the row label, the event's ``EventRegion`` and the region it
    is measured against, or None when the event's volume is its
    probability.  A builder's docstring, or a ``FORMULAS`` row's label,
    says what the event is."""

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
    terms = [(6 * sign, p) for sign, p in manipulability_event(rule).terms]
    return f"coalitional manipulability ({rule.name})", EventRegion(terms), IAC


# label permutations the cyclic agreement case stands for
CYCLIC_CASE_MULTIPLIER = 32

# The spec kinds whose events are weighted conjunctions of atoms, by usage:
# the row label ({0} and {1} name the spec's rules), the event's (weight,
# atoms) terms and the terms it is measured against, by default the share
# simplex (no atoms).  An option field maps each option to a formula.
Formula = namedtuple("Formula", "label event given", defaults=(((1, ()),),))
FORMULAS = {
    "condorcet-winner": Formula("a pairwise-majority winner exists", ((3, _WINNER),)),
    "condorcet-paradox": Formula("no pairwise-majority winner exists", ((1, ()), (-3, _WINNER))),
    "condorcet-loser": Formula("a pairwise-majority loser exists", ((3, _LOSER),)),
    "condorcet-loser:RULE": Formula("{0} elects the pairwise loser", ((3, _wins(0) + _LOSER),)),
    "condorcet-efficiency:RULE": Formula(
        "condorcet efficiency ({0})", ((1, _wins(0) + _WINNER),), ((1, _WINNER),)),
    "joint-efficiency:RULE,RULE": Formula(
        "{0} and {1} both elect the pairwise-majority winner",
        ((1, _wins(0) + _wins(1) + _WINNER),), ((1, _WINNER),)),
    "relative-efficiency:RULE|RULE": Formula(
        "{0} elects the pairwise-majority winner when {1} does",
        ((1, _wins(0) + _wins(1) + _WINNER),), ((1, _wins(1) + _WINNER),)),
    "rule-winner:RULE": Formula("candidate a wins under {0}", ((1, _wins(0)),)),
    "agreement:RULE,RULE:winner|ranking": {
        "winner": Formula("{0} and {1} elect the same winner", ((3, _wins(0) + _wins(1)),)),
        "ranking": Formula("{0} and {1} agree on the full ranking", ((6, _ranks(0) + _ranks(1)),)),
    },
    # score vectors are convex combinations of the plurality and
    # antiplurality ones, so all positional rules agree exactly when those two do
    "all-rules-agree": Formula("all common rules elect the same winner", (
        (3, _wins(PLURALITY) + _wins(ANTIPLURALITY) + _WINNER),
        (CYCLIC_CASE_MULTIPLIER, _cycle("abc")), (CYCLIC_CASE_MULTIPLIER, _cycle("acb")))),
}


def _compile(usage: str, *values):
    """The label, event and given regions of the ``FORMULAS`` row of
    ``usage`` under a spec's parsed arguments: an option picks a formula,
    and the rules stand in for the score atoms' numbers and label's names."""
    formula, rules = FORMULAS[usage], []
    for value in values:
        if type(value) is str:
            formula = formula[value]
        else:
            rules += value if type(value) is tuple else [value]

    def region(terms):
        return EventRegion([(w, conjunction(frozenset(
            (kind, x, y, rules[rule] if type(rule) is int else rule)
            for kind, x, y, rule in atoms))) for w, atoms in terms])

    return (formula.label.format(*(rule.name for rule in rules)),
            region(formula.event), region(formula.given))


for _usage in FORMULAS:
    _event(*_usage.split(":"))(functools.partial(_compile, _usage))


@_event("participation", "RULE", "|".join(PARADOXES))
def _participation(rule, paradox):
    """The runoff of the rule shows the named participation or abstention paradox."""
    return (f"{paradox} for {rule.name} runoff",
            EventRegion(((6, participation_event(rule, paradox)),)), IAC)


@_event("referendum", "N=INT")
def _referendum(districts):
    """The winner of a majority of N equal districts loses the popular vote."""
    if districts < 3:
        raise ValueError("need at least 3 districts")
    # the k districts won can be any C(N, k), and either candidate wins
    # them; the shares are uniform on [0, 1]^N, of volume 1
    terms = [(2 * comb(districts, k), referendum_district_polytope(districts, k))
             for k in range(districts // 2 + 1, districts)]
    return f"referendum paradox with {districts} districts", EventRegion(terms), None


def _parse_spec(text: str) -> tuple[str, SpecForm, tuple]:
    """The stripped spec, its registry form and its parsed arguments."""
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
    return spec, form, values


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
    the next call."""
    spec, form, values = _parse_spec(text)
    label, p = _evaluate(form, values)
    if not 0 <= p <= 1:
        raise GeometryError(f"{spec}: probability {p} escaped [0, 1]")
    return EventResult(label, spec, p)


@functools.lru_cache(maxsize=4096)
def _evaluate(form: SpecForm, values: tuple) -> tuple[str, Fraction]:
    """``(label, probability)`` of one parsed spec: its event's volume,
    divided by the nonzero volume of what it is measured against when
    the builder names one; memoized on the form and its parsed
    arguments, a builder that raises leaves no entry."""
    label, event, given = form.build(*values)
    p = event.volume()
    if given is not None:
        whole = given.volume()
        if whole == 0:
            raise GeometryError("conditioning event has zero volume")
        p /= whole
    return label, p


def referendum_probability(districts: int) -> Fraction:
    """Probability that the winner of a majority of equal districts
    loses the overall popular vote, per-district shares uniform."""
    return probability_for_spec(f"referendum:N={districts}").probability


# ---------------------------------------------------------------------------
# the summary tables


def _table_specs(number: int) -> list[tuple[str | None, str]]:
    """The (label, event spec) rows of one summary table; a row whose
    label is None prints the event's own label."""
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
        rows = [(None, f"agreement:{r1.name},{r2.name}:{mode}")
                for r1, r2 in pairs for mode in ("winner", "ranking")]
        return rows + [(None, "all-rules-agree")]
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
    in the same process reads it back from the spec memo."""
    rows = [(label, probability_for_spec(spec)) for label, spec in _table_specs(number)]
    return [row._replace(label=label) if label else row for label, row in rows]

"""Three-candidate election events as share-space polytopes, and their
limiting probabilities under the Impartial Anonymous Culture model.

Voting situations are counted by the six preference orders abc, acb,
bac, bca, cab, cba; coordinates x_1..x_6 are the corresponding voter
shares, so events live on the simplex sum(x_i) = 1, x_i >= 0.  Every
event compiles to homogeneous constraint rows in the full 6-dimensional
space; the simplex equality is then eliminated, leaving a polytope over
x_1..x_5 bounded by the standard inequalities (x_i >= 0 and
x_1+..+x_5 <= 1, a simplex of volume 1/120).  A limiting probability is
the event volume over 1/120, times the number of equally likely
candidate relabelings the compiled polytope stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .polytope import EventRegion, GeometryError, HalfSpace, HPolytope

ORDERS = ("abc", "acb", "bac", "bca", "cab", "cba")
CANDIDATES = ("a", "b", "c")

SIMPLEX_VOLUME = Fraction(1, 120)

# number of equally likely label permutations a compiled polytope represents:
# 6 when a full ranking is fixed, 3 when only the winner's label is fixed
FACTOR_RANKING = 6
FACTOR_WINNER = 3
_VALID_FACTORS = (1, 3, 6)

Row = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# share-space primitives


def scoring_vector(candidate: str, lam: Fraction) -> Row:
    """Per-order points the candidate receives under weights (1, lam, 0)."""
    out = []
    for order in ORDERS:
        pos = order.index(candidate)
        out.append((Fraction(1), Fraction(lam), Fraction(0))[pos])
    return tuple(out)


def pairwise_vector(x: str, y: str) -> Row:
    """Per-order +-1 margin contribution of x against y."""
    return tuple(
        Fraction(1) if order.index(x) < order.index(y) else Fraction(-1)
        for order in ORDERS
    )


def order_permutation(swap: dict[str, str]) -> tuple[int, ...]:
    """Index permutation of ORDERS induced by relabeling candidates."""
    table = {c: swap.get(c, c) for c in CANDIDATES}
    perm = []
    for order in ORDERS:
        renamed = "".join(table[c] for c in order)
        perm.append(ORDERS.index(renamed))
    return tuple(perm)


PERM_SWAP_BC = order_permutation({"b": "c", "c": "b"})
PERM_SWAP_AB = order_permutation({"a": "b", "b": "a"})
PERM_SWAP_AC = order_permutation({"a": "c", "c": "a"})


def permute_row(row: Row, perm: tuple[int, ...]) -> Row:
    out: list[Fraction] = [Fraction(0)] * 6
    for i, c in enumerate(row):
        out[perm[i]] = c
    return tuple(out)


def _sub(u: Row, v: Row) -> Row:
    return tuple(a - b for a, b in zip(u, v))


def _scale(u: Row, s) -> Row:
    s = Fraction(s)
    return tuple(s * a for a in u)


def _unit(i: int) -> Row:
    return tuple(Fraction(1 if j == i else 0) for j in range(6))


def share_space_polytope(rows: list[Row]) -> HPolytope:
    """Compile homogeneous rows (each meaning row . x >= 0 on the share
    simplex) into the reduced 5-dimensional polytope.

    The full-space polytope carries the simplex equality and
    nonnegativity; eliminating x_6 through the equality yields the
    standard inequalities plus the reduced event rows.  The eliminated
    coefficient is 1, so dilation lattice counts are preserved.
    """
    constraints = [HalfSpace((Fraction(1),) * 6, "=", Fraction(1))]
    for i in range(6):
        constraints.append(HalfSpace(_unit(i), ">=", Fraction(0)))
    for row in rows:
        constraints.append(HalfSpace(row, ">=", Fraction(0)))
    return HPolytope(6, constraints).eliminate_equality(5)


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class ScoringRule:
    """Positional rule with weights (1, lam, 0)."""

    lam: Fraction

    def __post_init__(self):
        lam = Fraction(self.lam)
        if not 0 <= lam <= 1:
            raise ValueError("scoring weight lam must lie in [0, 1]")
        object.__setattr__(self, "lam", lam)

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
        return ScoringRule(Fraction(token.split("=", 1)[1]))
    raise ValueError(f"unknown scoring rule {token!r}")


# ---------------------------------------------------------------------------
# basic events


def rule_winner_conditions(rule: ScoringRule) -> HPolytope:
    """Candidate a scores at least b and at least c (factor 3 event)."""
    sa = scoring_vector("a", rule.lam)
    rows = [_sub(sa, scoring_vector("b", rule.lam)),
            _sub(sa, scoring_vector("c", rule.lam))]
    return share_space_polytope(rows)


def rule_ranking_conditions(rule: ScoringRule) -> HPolytope:
    """Scores order the candidates a >= b >= c (factor 6 event)."""
    sa, sb, sc = (scoring_vector(c, rule.lam) for c in CANDIDATES)
    return share_space_polytope([_sub(sa, sb), _sub(sb, sc)])


def _candidate_perm(candidate: str) -> tuple[int, ...] | None:
    if candidate == "a":
        return None
    if candidate == "b":
        return PERM_SWAP_AB
    if candidate == "c":
        return PERM_SWAP_AC
    raise ValueError(f"unknown candidate {candidate!r}")


def condorcet_winner(candidate: str = "a") -> HPolytope:
    """The candidate beats both others in pairwise majority comparisons."""
    rows = [pairwise_vector("a", "b"), pairwise_vector("a", "c")]
    perm = _candidate_perm(candidate)
    if perm:
        rows = [permute_row(r, perm) for r in rows]
    return share_space_polytope(rows)


def condorcet_loser(candidate: str = "a") -> HPolytope:
    """The candidate loses both pairwise comparisons."""
    rows = [pairwise_vector("b", "a"), pairwise_vector("c", "a")]
    perm = _candidate_perm(candidate)
    if perm:
        rows = [permute_row(r, perm) for r in rows]
    return share_space_polytope(rows)


# ---------------------------------------------------------------------------
# coalitional manipulability (fixed sincere ranking a > b > c, factor 6)


def _sincere_rows(rule: ScoringRule) -> list[Row]:
    sa, sb, sc = (scoring_vector(c, rule.lam) for c in CANDIDATES)
    return [_sub(sa, sb), _sub(sb, sc)]


def _strategic_rows_for_b(rule: ScoringRule) -> list[Row]:
    """Conditions under which the voters preferring b to the sincere
    winner a (orders bac, bca, cba) can misreport so that b wins.

    Plurality: the cba voters switch to b, so b must then beat both a
    and c on first-place tallies.  Borda: the coalition ranks b first
    and splits its second places between a and c; b wins for some split
    iff b's total covers a's with no help (row 1) and the two score
    gaps together do not exceed the coalition's weight (row 2).
    Antiplurality: the coalition directs its vetoes; alpha of them veto
    a and the rest veto c, which works iff the vetoes b already carries
    fit inside the coalition (row 1) and inside the slack left after
    covering c's deficit (row 2).
    """
    lam = rule.lam
    if lam == 0:
        return [
            (Fraction(-1), Fraction(-1), Fraction(1), Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(-1), Fraction(1)),
        ]
    if lam == Fraction(1, 2):
        return [
            (Fraction(-1), Fraction(-2), Fraction(2), Fraction(2), Fraction(-1), Fraction(2)),
            (Fraction(0), Fraction(-1), Fraction(1), Fraction(1), Fraction(-1), Fraction(1)),
        ]
    if lam == 1:
        return [
            (Fraction(0), Fraction(-1), Fraction(1), Fraction(1), Fraction(-1), Fraction(1)),
            (Fraction(1), Fraction(-2), Fraction(1), Fraction(1), Fraction(-2), Fraction(1)),
        ]
    raise ValueError(
        f"manipulability systems are defined for plurality, borda and "
        f"antiplurality, not {rule.name}"
    )


def manipulability_event(rule: ScoringRule) -> EventRegion:
    """Signed union of the regions where a coalition can make b, or c,
    win instead of the sincere winner a.

    The c-side system keeps the sincere ranking rows and applies the
    b <-> c candidate swap to the strategic rows only; swapping the
    sincere rows as well would describe elections with a different
    sincere outcome and an empty overlap.
    """
    sincere = _sincere_rows(rule)
    strategic_b = _strategic_rows_for_b(rule)
    strategic_c = [permute_row(r, PERM_SWAP_BC) for r in strategic_b]
    favor_b = share_space_polytope(sincere + strategic_b)
    favor_c = share_space_polytope(sincere + strategic_c)
    both = share_space_polytope(sincere + strategic_b + strategic_c)
    return EventRegion(((1, favor_b), (1, favor_c), (-1, both)))


# ---------------------------------------------------------------------------
# probabilities


def iac_probability(target, factor: int) -> Fraction:
    """Limiting probability: factor * volume / (simplex volume 1/120).

    ``target`` is an HPolytope or an EventRegion in the reduced share
    space.
    """
    if factor not in _VALID_FACTORS:
        raise ValueError(f"symmetry factor must be one of {_VALID_FACTORS}")
    p = factor * target.volume() / SIMPLEX_VOLUME
    if not 0 <= p <= 1:
        raise GeometryError(
            f"probability {p} escaped [0, 1]; wrong symmetry factor?"
        )
    return p


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


def condorcet_paradox_probability() -> Fraction:
    """No candidate beats both others pairwise."""
    return 1 - iac_probability(condorcet_winner(), FACTOR_WINNER)


def condorcet_efficiency(rule: ScoringRule) -> Fraction:
    """Probability the rule elects the pairwise-majority winner when one
    exists (the label cancels between numerator and denominator)."""
    return conditional_probability(rule_winner_conditions(rule), condorcet_winner())


def condorcet_loser_election_probability(rule: ScoringRule) -> Fraction:
    """Probability the rule elects a candidate losing every pairwise
    comparison."""
    region = rule_winner_conditions(rule).intersect(condorcet_loser())
    return iac_probability(region, FACTOR_WINNER)


def manipulability_probability(rule: ScoringRule) -> Fraction:
    return iac_probability(manipulability_event(rule), FACTOR_RANKING)


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


def agreement_probability(rule1: ScoringRule, rule2: ScoringRule, mode: str) -> Fraction:
    poly, factor = agreement_event(rule1, rule2, mode)
    return iac_probability(poly, factor)


def all_positional_agree_probability() -> Fraction:
    """All positional rules pick one winner; score vectors are convex
    combinations of the plurality and antiplurality ones, so agreement
    of those two extremes is equivalent."""
    return agreement_probability(PLURALITY, ANTIPLURALITY, "winner")


def _cycle_rows(reverse: bool) -> list[Row]:
    if not reverse:
        return [pairwise_vector("a", "b"), pairwise_vector("b", "c"),
                pairwise_vector("c", "a")]
    return [pairwise_vector("a", "c"), pairwise_vector("c", "b"),
            pairwise_vector("b", "a")]


def agree_given_condorcet_probability() -> Fraction:
    """All positional rules and the pairwise-majority winner coincide,
    conditioned on that winner existing."""
    both = rule_winner_conditions(PLURALITY).intersect(
        rule_winner_conditions(ANTIPLURALITY)
    )
    return conditional_probability(both, condorcet_winner())


def cyclic_agreement_probability() -> Fraction:
    """Pairwise comparisons form a cycle while plurality and
    antiplurality (hence all positional rules) produce one common full
    ranking; both cycle orientations contribute."""
    total = Fraction(0)
    for reverse, ranking_perm in ((False, None), (True, PERM_SWAP_BC)):
        rows = _cycle_rows(reverse)
        for rule in (PLURALITY, ANTIPLURALITY):
            sa, sb, sc = (scoring_vector(c, rule.lam) for c in CANDIDATES)
            ranked = [_sub(sa, sb), _sub(sb, sc)]
            if ranking_perm:
                ranked = [permute_row(r, ranking_perm) for r in ranked]
            rows += ranked
        total += share_space_polytope(rows).volume() / SIMPLEX_VOLUME
    return total


# label permutations the cyclic agreement case stands for
CYCLIC_CASE_MULTIPLIER = 32


def all_rules_agree_probability() -> Fraction:
    """All positional rules and every Condorcet-consistent rule elect
    the same candidate: the conditional part when a pairwise-majority
    winner exists, plus the cyclic-case contribution."""
    with_winner = agree_given_condorcet_probability() * iac_probability(
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
    """
    lam = rule.lam
    sa, sb, sc = (scoring_vector(c, lam) for c in CANDIDATES)
    m_ab = pairwise_vector("a", "b")
    m_ca = pairwise_vector("c", "a")
    if paradox == "PPP":
        rows = [
            _sub(sa, sc), _sub(sb, sc), m_ab, m_ca,
            _sub(_scale(m_ca, lam), _sub(sb, sc)),
        ]
    elif paradox == "NAP":
        rows = [
            _sub(sa, sc), _sub(sb, sc), m_ab, m_ca,
            _sub(_scale(m_ca, 1 - lam), _sub(sb, sc)),
            _sub(_scale(_unit(3), 1 - lam), _sub(sb, sc)),
        ]
    elif paradox == "NPP":
        rows = [
            _sub(sa, sb), _sub(sc, sb), m_ca, m_ab,
            _sub(_scale(_sub(sa, sc), 1 - lam), _scale(_sub(sc, sb), lam)),
            _sub(_scale(m_ab, 1 - lam), _sub(sc, sb)),
        ]
    elif paradox == "PAP":
        rows = [
            _sub(sa, sb), _sub(sc, sb), m_ca, m_ab,
            _sub(_scale(_unit(1), lam), _sub(sc, sb)),
            _sub(_scale(_sub(sa, sc), lam), _scale(_sub(sc, sb), 1 - lam)),
            _sub(_scale(m_ab, lam), _sub(sc, sb)),
        ]
    else:
        raise ValueError(f"paradox must be one of {PARADOXES}")
    return share_space_polytope(rows)


def participation_probability(rule: ScoringRule, paradox: str) -> Fraction:
    return iac_probability(participation_event(rule, paradox), FACTOR_RANKING)


# ---------------------------------------------------------------------------
# referendum (compound majority) paradox


def referendum_district_polytope(districts: int, k: int) -> HPolytope:
    """Candidate a takes districts 1..k outright (share >= 1/2 each),
    loses the rest, yet b holds the overall popular majority."""
    rows = []
    for i in range(districts):
        e = tuple(Fraction(1 if j == i else 0) for j in range(districts))
        if i < k:
            rows.append(HalfSpace(e, ">=", Fraction(1, 2)))
        else:
            rows.append(HalfSpace(e, ">=", Fraction(0)))
            rows.append(HalfSpace(e, "<=", Fraction(1, 2)))
    rows.append(HalfSpace((Fraction(1),) * districts, "<=", Fraction(districts, 2)))
    return HPolytope(districts, rows)


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


RULE_M_LAMBDA = Fraction(37228, 100000)


def rule_m_probabilities(lambda_approx: Fraction = RULE_M_LAMBDA) -> dict[str, Fraction]:
    """Condorcet efficiency, joint efficiency with Borda, and the
    probability of electing the pairwise loser, all at a rational
    approximation of the optimal weight (the exact optimum is an
    algebraic irrational; accuracy follows the approximation)."""
    rule = ScoringRule(Fraction(lambda_approx))
    winner = rule_winner_conditions(rule)
    cond = condorcet_winner()
    joint = winner.intersect(rule_winner_conditions(BORDA))
    return {
        "efficiency": conditional_probability(winner, cond),
        "joint_with_borda": conditional_probability(joint, cond),
        "condorcet_loser": condorcet_loser_election_probability(rule),
    }


# ---------------------------------------------------------------------------
# event specifications (canonical text forms used by the CLI)


@dataclass(frozen=True)
class EventResult:
    label: str
    spec: str
    probability: Fraction


def _agreement_label(rule1, rule2, mode):
    what = "elect the same winner" if mode == "winner" else "agree on the full ranking"
    return f"{rule1.name} and {rule2.name} {what}"


def compile_event_spec(text: str) -> tuple[EventRegion, int]:
    """Compile a region-style event spec into its signed polytope family
    and the number of label permutations the family represents.

    Composite specs whose probability is not a single symmetrized region
    (``condorcet-paradox``, ``condorcet-efficiency``, ``all-rules-agree``,
    ``referendum``) are rejected; use :func:`probability_for_spec`.
    """
    parts = text.strip().split(":")
    kind = parts[0]
    if kind == "manipulable":
        return manipulability_event(rule_from_token(parts[1])), FACTOR_RANKING
    if kind == "rule-winner":
        poly = rule_winner_conditions(rule_from_token(parts[1]))
        return EventRegion.of(poly), FACTOR_WINNER
    if kind == "condorcet-winner":
        cand = parts[1] if len(parts) > 1 else "a"
        return EventRegion.of(condorcet_winner(cand)), FACTOR_WINNER
    if kind == "condorcet-loser":
        if len(parts) > 1:
            poly = rule_winner_conditions(rule_from_token(parts[1])).intersect(
                condorcet_loser()
            )
        else:
            poly = condorcet_loser()
        return EventRegion.of(poly), FACTOR_WINNER
    if kind == "agreement":
        r1, r2 = (rule_from_token(t) for t in parts[1].split(","))
        poly, factor = agreement_event(r1, r2, parts[2])
        return EventRegion.of(poly), factor
    if kind == "participation":
        poly = participation_event(rule_from_token(parts[1]), parts[2])
        return EventRegion.of(poly), FACTOR_RANKING
    raise ValueError(f"event spec {text!r} does not compile to a single region")


def _rule_pair(parts: list[str], sep: str, usage: str) -> tuple[ScoringRule, ScoringRule]:
    tokens = parts[1].split(sep) if len(parts) == 2 else []
    if len(tokens) != 2:
        raise ValueError(f"spec form is {usage}")
    r1, r2 = (rule_from_token(t) for t in tokens)
    return r1, r2


def probability_for_spec(
    text: str,
    lam: Fraction | None = None,
    districts: int | None = None,
) -> EventResult:
    """Evaluate a canonical event-spec string, e.g. ``manipulable:borda``,
    ``condorcet-efficiency:lambda=1/2``,
    ``joint-efficiency:borda,plurality`` (both rules elect the
    pairwise-majority winner, given that it exists),
    ``relative-efficiency:borda|plurality`` (Borda elects it, given that
    plurality does), ``agreement:plurality,antiplurality:winner``,
    ``participation:borda:PPP``, ``referendum:N=7``."""
    spec = text.strip()
    parts = spec.split(":")
    kind = parts[0]

    def rule_arg(pos=1, default=None):
        if len(parts) > pos:
            return rule_from_token(parts[pos])
        if lam is not None:
            return ScoringRule(lam)
        if default is not None:
            return default
        raise ValueError(f"spec {spec!r} needs a rule (or --lambda)")

    if kind == "manipulable":
        rule = rule_arg()
        return EventResult(
            f"coalitional manipulability ({rule.name})",
            spec, manipulability_probability(rule),
        )
    if kind == "condorcet-paradox":
        return EventResult(
            "no pairwise-majority winner exists", spec,
            condorcet_paradox_probability(),
        )
    if kind == "condorcet-winner":
        return EventResult(
            "a pairwise-majority winner exists", spec,
            iac_probability(condorcet_winner(), FACTOR_WINNER),
        )
    if kind == "condorcet-efficiency":
        rule = rule_arg()
        return EventResult(
            f"condorcet efficiency ({rule.name})", spec, condorcet_efficiency(rule),
        )
    if kind == "joint-efficiency":
        r1, r2 = _rule_pair(parts, ",", "joint-efficiency:RULE,RULE")
        both = rule_winner_conditions(r1).intersect(rule_winner_conditions(r2))
        return EventResult(
            f"{r1.name} and {r2.name} both elect the pairwise-majority winner",
            spec, conditional_probability(both, condorcet_winner()),
        )
    if kind == "relative-efficiency":
        r1, r2 = _rule_pair(parts, "|", "relative-efficiency:RULE|RULE")
        given = rule_winner_conditions(r2).intersect(condorcet_winner())
        return EventResult(
            f"{r1.name} elects the pairwise-majority winner when {r2.name} does",
            spec, conditional_probability(rule_winner_conditions(r1), given),
        )
    if kind == "condorcet-loser":
        if len(parts) == 1 and lam is None:
            return EventResult(
                "a pairwise-majority loser exists", spec,
                iac_probability(condorcet_loser(), FACTOR_WINNER),
            )
        rule = rule_arg()
        return EventResult(
            f"{rule.name} elects the pairwise loser", spec,
            condorcet_loser_election_probability(rule),
        )
    if kind == "rule-winner":
        rule = rule_arg()
        return EventResult(
            f"candidate a wins under {rule.name}", spec,
            iac_probability(rule_winner_conditions(rule), 1),
        )
    if kind == "agreement":
        if len(parts) != 3:
            raise ValueError("agreement spec is agreement:RULE,RULE:winner|ranking")
        r1, r2 = (rule_from_token(t) for t in parts[1].split(","))
        mode = parts[2]
        return EventResult(
            _agreement_label(r1, r2, mode), spec,
            agreement_probability(r1, r2, mode),
        )
    if kind == "all-rules-agree":
        return EventResult(
            "all common rules elect the same winner", spec,
            all_rules_agree_probability(),
        )
    if kind == "participation":
        if len(parts) != 3 or parts[2] not in PARADOXES:
            raise ValueError("participation spec is participation:RULE:PPP|NPP|PAP|NAP")
        rule = rule_from_token(parts[1])
        return EventResult(
            f"{parts[2]} for {rule.name} runoff", spec,
            participation_probability(rule, parts[2]),
        )
    if kind == "referendum":
        n = districts
        if len(parts) > 1:
            if not parts[1].startswith("N="):
                raise ValueError("referendum spec is referendum:N=INT")
            n = int(parts[1][2:])
        if n is None:
            raise ValueError("referendum needs N (spec referendum:N=INT or --districts)")
        return EventResult(
            f"referendum paradox with {n} districts",
            f"referendum:N={n}", referendum_probability(n),
        )
    raise ValueError(f"unknown event spec {spec!r}")


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
    spec it prints, so ``polyvote prob SPEC`` reproduces each row."""
    return [EventResult(label, spec, probability_for_spec(spec).probability)
            for label, spec in _table_specs(number)]

"""A finite-n oracle for the three-candidate events: every profile of n
voters, each event decided directly from the profile.

A profile counts the voters holding each of the six preference orders
abc, acb, bac, bca, cab, cba, the coordinate order of the share space,
so the profiles of n voters are the lattice points of the n-fold
dilation of the share simplex (x_6 = n - x_1 - ... - x_5), and an
event's count at n must equal the lattice count of its compiled
polytope.  Every inequality is closed (weak): a candidate tied for the
top score wins, and a tied pairwise comparison is won by both sides.

Nothing here calls polyvote: scores, pairwise margins and the
coalition's strategic ballots are computed from the voter counts."""

import functools
import itertools
from fractions import Fraction

ORDERS = ("abc", "acb", "bac", "bca", "cab", "cba")
CANDIDATES = "abc"


def profiles(n):
    """The C(n+5, 5) profiles of n voters, as tuples of six counts."""
    for bars in itertools.combinations(range(n + 5), 5):
        edges = (-1, *bars, n + 5)
        yield tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))


def scores(profile, lam):
    """Each candidate's score under the weights (q, p, 0) for lam = p/q,
    q times the score under (1, lam, 0), so every score is an integer."""
    lam = Fraction(lam)
    weights = (lam.denominator, lam.numerator, 0)
    out = dict.fromkeys(CANDIDATES, 0)
    for order, count in zip(ORDERS, profile):
        for place, candidate in enumerate(order):
            out[candidate] += weights[place] * count
    return out


def margin(profile, x, y):
    """Voters ranking x over y minus voters ranking y over x."""
    return sum(count if order.index(x) < order.index(y) else -count
               for order, count in zip(ORDERS, profile))


def rule_winner(profile, lam):
    """Candidate a scores at least as much as b and as c."""
    s = scores(profile, lam)
    return s["a"] >= s["b"] and s["a"] >= s["c"]


def rule_ranking(profile, lam):
    """The scores order the candidates a >= b >= c."""
    s = scores(profile, lam)
    return s["a"] >= s["b"] >= s["c"]


def condorcet_winner(profile, candidate):
    """The candidate wins or ties both of its pairwise comparisons."""
    return all(margin(profile, candidate, other) >= 0
               for other in CANDIDATES if other != candidate)


def condorcet_loser(profile, candidate):
    """The candidate loses or ties both of its pairwise comparisons."""
    return all(margin(profile, other, candidate) >= 0
               for other in CANDIDATES if other != candidate)


def atoms_hold(profile, atoms):
    """Every atom holds: ("score", x, y, lam), x scores at least as much
    as y under lam, or ("margin", x, y), at least as many voters rank x
    over y as y over x."""
    for kind, x, y, *lam in atoms:
        if kind == "score":
            s = scores(profile, *lam)
            if s[x] < s[y]:
                return False
        elif margin(profile, x, y) < 0:
            return False
    return True


def agreement(profile, lam1, lam2, mode):
    """Both rules make a the winner (mode "winner") or rank a >= b >= c
    (mode "ranking")."""
    event = rule_winner if mode == "winner" else rule_ranking
    return event(profile, lam1) and event(profile, lam2)


def _coalition_elects(profile, target):
    """Whether the voters who prefer ``target`` to a can split their
    first places among a, b and c so that ``target`` tops the plurality
    tallies, with every other voter sincere.  Every split is tried."""
    tally = dict.fromkeys(CANDIDATES, 0)
    coalition = 0
    for order, count in zip(ORDERS, profile):
        if order.index(target) < order.index("a"):
            coalition += count
        else:
            tally[order[0]] += count
    for to_a in range(coalition + 1):
        for to_b in range(coalition - to_a + 1):
            split = {"a": tally["a"] + to_a, "b": tally["b"] + to_b,
                     "c": tally["c"] + coalition - to_a - to_b}
            if all(split[target] >= split[other] for other in CANDIDATES):
                return True
    return False


def plurality_manipulable(profile):
    """The sincere plurality tallies rank a >= b >= c, and the voters
    preferring b to a can make b win, or those preferring c to a can
    make c win."""
    return rule_ranking(profile, 0) and any(_coalition_elects(profile, t) for t in "bc")


@functools.lru_cache(maxsize=None)
def _coalition_totals(size, lam):
    """Every score vector (a, b, c) that ``size`` ballots add under lam,
    each ballot any of the six orders: the totals of every multiset of
    ballots, built one ballot at a time."""
    if size == 0:
        return frozenset({(0, 0, 0)})
    ballots = {tuple(scores([int(i == k) for k in range(6)], lam).values()) for i in range(6)}
    return frozenset(tuple(map(sum, zip(total, ballot)))
                     for total in _coalition_totals(size - 1, lam) for ballot in ballots)


def _coalition_elects_by_ballots(profile, target, lam):
    """Whether the voters who prefer ``target`` to a can cast some
    multiset of ballots under which ``target`` scores at least as much
    as a and as c, with every other voter sincere."""
    sincere = tuple(0 if order.index(target) < order.index("a") else count
                    for order, count in zip(ORDERS, profile))
    base = scores(sincere, lam)
    t = CANDIDATES.index(target)
    for added in _coalition_totals(sum(profile) - sum(sincere), lam):
        total = [base[c] + v for c, v in zip(CANDIDATES, added)]
        if all(total[t] >= s for s in total):
            return True
    return False


def manipulable(profile, lam):
    """The sincere scores rank a >= b >= c, and the voters preferring b
    to a can cast ballots that make b win, or those preferring c to a
    ballots that make c win."""
    return rule_ranking(profile, lam) and any(
        _coalition_elects_by_ballots(profile, t, lam) for t in "bc")


def count(event, n, *args):
    """The number of profiles of n voters in which ``event`` holds."""
    return sum(event(profile, *args) for profile in profiles(n))

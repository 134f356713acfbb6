"""Bounds and classification rules for k-th Waring ranks of monomials.

For a monomial M of degree k*d, the k-th rank is the least number of
homogeneous degree-d forms whose k-th powers sum to M.  The rules encoded
here:

* ``monomial_rank``: the exact rank of a degree-D monomial written as a sum
  of D-th powers of linear forms, ``prod(a_i + 1) / (a_min + 1)`` [CCG].
* block grouping: if M = prod B_i^(a_i) with degree-d monomials B_i and
  sum a_i = k, substituting y_i -> B_i in the averaging certificate of
  prod y_i^(a_i) writes M with ``monomial_rank(a)`` k-th powers.  The rule
  takes the pattern a of least rank that M admits.  Pure powers (a = (k)),
  the two-square identity (k = 2, a = (1, 1)), the alternating-sign
  identity for k blocks (a = (1, ..., 1)) and the rank formula itself
  (d = 1) are its cases.
* rank 1 exactly for k-th powers; rank 2 occurs only for k = 2.
* the three-cube route through x^4*y*z for k = 3.
* a small table of computed k = 4 binary ranks.

One ordered table, ``RULES``, holds every rule: where it applies, the bound
it gives and, for upper bounds that ``decompose`` realises, the construction
that attains it.  ``classify`` folds the table into bounds and a rule trace
(rule name, statement id, resulting bound); ``attaining_rule`` picks the
construction for the upper bound.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import prod
from operator import itemgetter, mul, sub

from .decomp import (
    CertificateError,
    group_substitute,
    monomial_linear_decomp,
    multiply_cert,
    special_x04x1x2,
)
from .polynomials import Monomial


@dataclass(frozen=True)
class KInstance:
    """A monomial together with the power k it is to be decomposed into."""

    monomial: Monomial
    k: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 2:
            raise ValueError("k must be an integer >= 2")
        if not self.monomial.nvars:
            raise ValueError("empty monomial")
        if self.monomial.degree % self.k != 0:
            raise ValueError(
                f"k={self.k} does not divide the degree {self.monomial.degree}"
            )


@dataclass(frozen=True)
class RuleRecord:
    rule: str
    statement: str
    bound: int
    kind: str  # "lower" | "upper" | "exact"


@dataclass(frozen=True)
class RankBounds:
    lower: int
    upper: int
    exact: bool
    trace: tuple

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


# k = 4 binary monomials with computed rank 4 (sorted exponent pairs)
KNOWN_QUARTIC_BINARY = {(1, 3): 4, (1, 7): 4, (3, 5): 4}


def monomial_rank(exponents) -> int:
    """Exact rank of x^a as a sum of deg(x^a)-th powers of linear forms."""
    exps = tuple(int(e) for e in exponents)
    if not exps or any(e < 1 for e in exps):
        raise ValueError("exponents must be positive")
    a_min = min(exps)
    num = prod(e + 1 for e in exps)
    assert num % (a_min + 1) == 0
    return num // (a_min + 1)


def reduce_mod_k(inst: KInstance):
    """Split M = N^k * R with R the residue monomial (exponents mod k)."""
    k = inst.k
    exps = inst.monomial.exponents
    residue = Monomial(tuple(e % k for e in exps))
    cofactor = Monomial(tuple(e // k for e in exps))
    return residue, cofactor


def residue_classes(n: int, k: int):
    """Sorted residue patterns for n+1 variables whose sum is divisible by k."""
    if n < 0 or k < 2:
        raise ValueError("need n >= 0 and k >= 2")
    return [
        t
        for t in combinations_with_replacement(range(k), n + 1)
        if sum(t) % k == 0
    ]


# ---------------------------------------------------------------------------
# The rule table


@dataclass(frozen=True)
class Rule:
    """One rank rule: the bound it gives where it applies and, for rules that
    ``decompose`` can realise, the construction attaining it.

    ``bound(inst)`` is the bound, or None where the rule does not apply;
    ``build(inst)`` returns a verified certificate with that many summands.
    """

    name: str
    statement: str
    kind: str  # "lower" | "upper" | "exact"
    bound: Callable
    build: Callable | None = None


def _residue(inst: KInstance) -> tuple:
    """The nonzero exponents of the residue monomial, in position order."""
    return tuple(e % inst.k for e in inst.monomial.exponents if e % inst.k)


def _slots(inst: KInstance, r: int) -> list:
    """Positions whose exponent is r mod k, for r > 0."""
    return [i for i, e in enumerate(inst.monomial.exponents) if e % inst.k == r]


def _big_slot(inst: KInstance):
    """For k = 3 and residue pattern x*y*z, the first residue-1 position whose
    exponent is at least 4, else None."""
    if inst.k != 3 or _residue(inst) != (1, 1, 1):
        return None
    return next((i for i in _slots(inst, 1) if inst.monomial.exponents[i] >= 4), None)


def _direct(inst: KInstance):
    live = tuple(e for e in inst.monomial.exponents if e)
    return monomial_rank(live) if _residue(inst) and sum(live) == inst.k else None


def _known(inst: KInstance):
    live = tuple(sorted(e for e in inst.monomial.exponents if e))
    return KNOWN_QUARTIC_BINARY.get(live) if inst.k == 4 else None


def _patterns(k: int, largest: int) -> list:
    """Every partition a of k into parts of at most ``largest``, as
    (``monomial_rank(a)``, a) with a nonincreasing, in reverse lexicographic
    order.  The last part is the least, so the rank is prod(a_i + 1) over
    the others."""
    if not k:
        return [(1, ())]
    return [((first + 1) * rank if rest else 1, (first,) + rest)
            for first in range(min(k, largest), 0, -1)
            for rank, rest in _patterns(k - first, first)]


def _splits(e: int, a: tuple, caps: tuple, room: int, j: int = 0):
    """Every (c_j, c_j+1, ...) with sum_i a_i c_i = e and 0 <= c_i <= caps[i],
    the earliest blocks taking the most first.  ``room`` is
    sum_{i >= j} a_i caps[i], so no branch is a dead end."""
    if j == len(a):
        yield ()
        return
    room -= a[j] * caps[j]
    for c in range(min(caps[j], e // a[j]), max(0, -((room - e) // a[j])) - 1, -1):
        for rest in _splits(e - a[j] * c, a, caps, room, j + 1):
            yield (c,) + rest


def _fill(live: list, a: tuple, runs: list, failed: set, n: int, caps: tuple):
    """One split (c_i) per exponent of ``live[n:]`` across blocks with
    remaining capacities ``caps``, or None.  Blocks of equal a_i are
    interchangeable, so a failed state goes into ``failed`` as (variable,
    capacities sorted within each run of equal a_i)."""
    if n == len(live):
        return []
    state = (n, *(tuple(sorted(caps[run])) for run in runs))
    if state not in failed:
        for c in _splits(live[n], a, caps, sum(map(mul, a, caps))):
            rest = _fill(live, a, runs, failed, n + 1, tuple(map(sub, caps, c)))
            if rest is not None:
                return [c] + rest
        failed.add(state)
    return None


def _blocks(exponents: tuple, a: tuple, d: int):
    """Degree-d monomials B_i with prod B_i^(a_i) = x^exponents, or None.

    ``a`` is nonincreasing, so the first j + 1 blocks all have a_i >= a_j
    and fit in floor(x^exponents / a_j), a quick test.  Then a depth-first
    search over the variables, ``_fill``, splits each exponent across the
    blocks."""
    if any(sum(e // part for e in exponents) < (j + 1) * d for j, part in enumerate(a)):
        return None
    runs = [slice(i, i + a.count(part)) for i, part in enumerate(a)
            if not i or a[i - 1] != part]
    path = _fill([e for e in exponents if e], a, runs, set(), 0, (d,) * len(a))
    if path is None:
        return None
    splits = iter(path)
    columns = [next(splits) if e else (0,) * len(a) for e in exponents]
    return [Monomial(block) for block in zip(*columns)]


def _grouping(inst: KInstance):
    """(a, blocks): the pattern a, a partition of k, of least ``monomial_rank``
    for which M = prod B_i^(a_i) with degree-d blocks B_i; ties go to the
    earlier pattern in reverse lexicographic order.  Some pattern applies,
    since every monomial splits into k blocks, a = (1, ..., 1).  The blocks
    are distinct: equal blocks merge into a pattern of smaller rank."""
    d = inst.monomial.degree // inst.k
    for _, a in sorted(_patterns(inst.k, inst.k), key=itemgetter(0)):
        blocks = _blocks(inst.monomial.exponents, a, d)
        if blocks is not None:
            assert len(set(blocks)) == len(blocks), (inst, a, blocks)
            return a, blocks


def _build_grouping(inst: KInstance):
    """The averaging certificate of prod y_i^(a_i), y_i -> B_i."""
    a, blocks = _grouping(inst)
    return group_substitute(monomial_linear_decomp(a), blocks)


def _unit(nv: int, i: int) -> Monomial:
    exps = [0] * nv
    exps[i] = 1
    return Monomial(tuple(exps))


def _build_x4yz(inst: KInstance):
    """x_big^4 x_a x_b from ``special_x04x1x2``, times (cofactor / x_big)^3."""
    nv = inst.monomial.nvars
    big = _big_slot(inst)
    a, b = (i for i in _slots(inst, 1) if i != big)
    n = list(reduce_mod_k(inst)[1].exponents)
    n[big] -= 1
    images = [_unit(nv, big), _unit(nv, a), _unit(nv, b)]
    return multiply_cert(group_substitute(special_x04x1x2(), images), Monomial(tuple(n)))


# Every rule, in trace order.  A rule applies where its bound is not None.
RULES = (
    Rule("pure-power", "kth-power-of-a-monomial", "exact",
         lambda inst: None if _residue(inst) else 1),
    Rule("block-grouping", "monomial-rank-formula-over-blocks", "upper",
         lambda inst: monomial_rank(_grouping(inst)[0]), _build_grouping),
    # after grouping, which ties it, so that x^4 y z keeps the three-cube build
    Rule("x4yz-cube-route", "three-cube-product-route", "upper",
         lambda inst: None if _big_slot(inst) is None else 3, _build_x4yz),
    # rank 2 forces a two-square shape, which exists only for k = 2
    Rule("minimum-rank-dichotomy", "rank-2-characterization", "lower",
         lambda inst: (2 if inst.k == 2 else 3) if _residue(inst) else None),
    Rule("rank-formula-direct", "monomial-rank-formula", "exact", _direct),
    Rule("known-values", "computed-rank-table", "exact", _known),
)
_BY_NAME = {rule.name: rule for rule in RULES}


def classify(inst: KInstance) -> RankBounds:
    """Fold the rule table: the best bounds of the rules that apply, exact
    iff they meet.  The trace lists those rules in table order, less any
    whose bound is below the final lower bound."""
    fired = [RuleRecord(rule.name, rule.statement, b, rule.kind)
             for rule in RULES if (b := rule.bound(inst)) is not None]
    lower = max(r.bound for r in fired if r.kind != "upper")
    upper = min(r.bound for r in fired if r.kind != "lower")
    trace = tuple(r for r in fired if r.bound >= lower)
    return RankBounds(lower, upper, lower == upper, trace)


def attaining_rule(bounds: RankBounds) -> Rule:
    """The last rule of the trace that attains the upper bound and can build it."""
    for record in reversed(bounds.trace):
        rule = _BY_NAME[record.rule]
        if rule.build is not None and record.bound == bounds.upper:
            return rule
    raise CertificateError(f"no rule builds a certificate with {bounds.upper} summands")


def compare_bounds(n: int) -> int:
    """Largest k with 2^(k-1) <= k^n, by exact integer comparison.

    Scans k upward until the inequality first fails; past the crossover the
    left side outgrows the right permanently.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = 2
    while 2 ** k <= (k + 1) ** n:
        k += 1
    assert 2 ** (k - 1) <= k ** n
    return k

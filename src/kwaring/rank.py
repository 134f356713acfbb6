"""Bounds and classification rules for k-th Waring ranks of monomials.

For a monomial M of degree k*d, the k-th rank is the least number of
homogeneous degree-d forms whose k-th powers sum to M.  The rules encoded
here:

* ``monomial_rank``: the exact rank of a degree-D monomial written as a sum
  of D-th powers of linear forms, ``prod(a_i + 1) / (a_min + 1)``.
* mod-k reduction: M = N^k * R with R the residue monomial; every
  decomposition of R multiplies through by N, so ranks only drop.
* the generic splitting bound 2^(k-1) from the alternating-sign identity for
  a product of k blocks.
* rank 1 exactly for k-th powers; rank 2 occurs only for k = 2 (two-square
  identity on any non-square even product).
* cube (k = 3) class bounds obtained by grouping the reduced monomial into
  two blocks X*Y^2, including the three-cube route through x^4*y*z.
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
from functools import partial
from itertools import combinations_with_replacement
from math import prod

from .decomp import (
    CertificateError,
    greedy_split,
    group_substitute,
    monomial_linear_decomp,
    multiply_cert,
    product_linear,
    special_x04x1x2,
    trivial_cert,
    two_square,
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


def _cube_pattern(inst: KInstance):
    """(residue-1 count, residue-2 count) for k = 3, else None."""
    return (len(_slots(inst, 1)), len(_slots(inst, 2))) if inst.k == 3 else None


def _big_slot(inst: KInstance):
    """For k = 3 and residue pattern x*y*z, the first residue-1 position whose
    exponent is at least 4, else None."""
    if _cube_pattern(inst) != (3, 0):
        return None
    return next((i for i in _slots(inst, 1) if inst.monomial.exponents[i] >= 4), None)


def _reduced_rank(inst: KInstance, binary: bool):
    r = _residue(inst)
    applies = inst.k > 2 and sum(r) == inst.k and (len(r) == 2) == binary
    return monomial_rank(r) if applies else None


def _direct(inst: KInstance):
    live = tuple(e for e in inst.monomial.exponents if e)
    return monomial_rank(live) if _residue(inst) and sum(live) == inst.k else None


def _known(inst: KInstance):
    live = tuple(sorted(e for e in inst.monomial.exponents if e))
    return KNOWN_QUARTIC_BINARY.get(live) if inst.k == 4 else None


def _unit(nv: int, i: int, e: int = 1) -> Monomial:
    exps = [0] * nv
    exps[i] = e
    return Monomial(tuple(exps))


def _grouped(base, images, cofactor: Monomial):
    return multiply_cert(group_substitute(base, images), cofactor)


def _build_two_square(inst: KInstance):
    residue, cofactor = reduce_mod_k(inst)
    return multiply_cert(two_square(residue), cofactor)


def _split_blocks(residue: Monomial, k: int) -> list:
    """``greedy_split`` into k blocks, unless every distinct block occurs an
    even number of times: the alternating-sign identity then has a form whose
    blocks cancel, so the first block trades one unit of its first variable
    for one unit of the last block's last variable, and its count turns odd."""
    blocks = greedy_split(residue, k)
    if any(blocks.count(b) % 2 for b in blocks):
        return blocks
    first, last = list(blocks[0].exponents), list(blocks[-1].exponents)
    x = blocks[0].live_indices()[0]
    y = blocks[-1].live_indices()[-1]
    first[x], first[y] = first[x] - 1, first[y] + 1
    last[x], last[y] = last[x] + 1, last[y] - 1
    return [Monomial(tuple(first))] + blocks[1:-1] + [Monomial(tuple(last))]


def _build_split(inst: KInstance):
    """The alternating-sign identity for k blocks of the residue.

    For k = 3 and the residue x_a x_b x_c x_d x_e^2 the blocks are x_a x_b,
    x_c x_d and x_e^2, and the identity is root-of-unity averaging of x*y*z,
    which has the same four summands."""
    residue, cofactor = reduce_mod_k(inst)
    if _cube_pattern(inst) == (4, 1):
        nv = residue.nvars
        (a, b, c, d), (e,) = _slots(inst, 1), _slots(inst, 2)
        images = [_unit(nv, a) * _unit(nv, b), _unit(nv, c) * _unit(nv, d), _unit(nv, e, 2)]
        return _grouped(monomial_linear_decomp((1, 1, 1)), images, cofactor)
    return _grouped(product_linear(inst.k), _split_blocks(residue, inst.k), cofactor)


def _build_reduced_rank(inst: KInstance):
    """Root-of-unity averaging over the residue's variables in position
    order, except that for k = 3 the residue-1 variable of x*y^2 comes first."""
    residue, cofactor = reduce_mod_k(inst)
    live = residue.live_indices()
    if inst.k == 3:
        live = sorted(live, key=lambda i: residue.exponents[i])
    base = monomial_linear_decomp(tuple(residue.exponents[i] for i in live))
    return _grouped(base, [_unit(residue.nvars, i) for i in live], cofactor)


def _build_cube_grouping(inst: KInstance):
    """The residue R as X * Y^2 through x*y^2, with Y the product of the last
    d residue-2 variables (d = deg R / 3) and X = R / Y^2."""
    residue, cofactor = reduce_mod_k(inst)
    y = [0] * residue.nvars
    for i in _slots(inst, 2)[-(residue.degree // 3):]:
        y[i] = 1
    x = tuple(r - 2 * b for r, b in zip(residue.exponents, y))
    images = [Monomial(x), Monomial(tuple(y))]
    return _grouped(monomial_linear_decomp((1, 2)), images, cofactor)


def _build_x4yz(inst: KInstance):
    """x_big^4 x_a x_b from ``special_x04x1x2``, times (cofactor / x_big)^3."""
    nv = inst.monomial.nvars
    big = _big_slot(inst)
    a, b = (i for i in _slots(inst, 1) if i != big)
    n = list(reduce_mod_k(inst)[1].exponents)
    n[big] -= 1
    images = [_unit(nv, big), _unit(nv, a), _unit(nv, b)]
    return _grouped(special_x04x1x2(), images, Monomial(tuple(n)))


# Every rule, in trace order.  A rule applies where its bound is not None.
RULES = (
    Rule("pure-power", "kth-power-of-a-monomial", "exact",
         lambda inst: None if _residue(inst) else 1,
         lambda inst: trivial_cert(inst.monomial, inst.k)),
    Rule("two-square", "two-square-identity", "upper",
         lambda inst: 2 if inst.k == 2 and _residue(inst) else None, _build_two_square),
    Rule("generic-split", "k-block-splitting-bound", "upper",
         lambda inst: 2 ** (inst.k - 1) if inst.k > 2 and _residue(inst) else None,
         _build_split),
    Rule("binary-residue-bound", "monomial-rank-formula-after-reduction", "upper",
         partial(_reduced_rank, binary=True), _build_reduced_rank),
    Rule("reduced-rank-formula", "monomial-rank-formula-after-reduction", "upper",
         partial(_reduced_rank, binary=False), _build_reduced_rank),
    Rule("cube-grouping", "two-block-grouping-after-reduction", "upper",
         lambda inst: 3 if _cube_pattern(inst) in ((0, 3), (2, 2), (1, 4)) else None,
         _build_cube_grouping),
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

"""Rank formula, residue reduction, classification rules, and the growth
comparison, each checked against an independent brute-force oracle or a
frozen known value.
"""

import itertools
import random

import pytest

from kwaring.cli import _nondecreasing_tuples
from kwaring.polynomials import Monomial
from kwaring.rank import (
    RULES,
    KInstance,
    _grouping,
    attaining_rule,
    classify,
    compare_bounds,
    monomial_rank,
    reduce_mod_k,
    residue_classes,
)

# Frozen values for the product formula (checked against the construction
# size in the decomposition tests as well).
KNOWN_RANKS = {
    (1, 1): 2,
    (1, 2): 3,
    (2, 2): 3,
    (1, 3): 4,
    (2, 3): 4,
    (1, 1, 1): 4,
    (2, 1): 3,
    (1, 1, 2): 6,
    (1, 1, 1, 1): 8,
    (1, 1, 1, 1, 1): 16,
    (2, 2, 2): 9,
}


def test_monomial_rank_known_values():
    for exps, value in KNOWN_RANKS.items():
        assert monomial_rank(exps) == value, exps


def test_monomial_rank_binary_family():
    # x*y^(k-1) has rank k for every k
    for k in range(2, 11):
        assert monomial_rank((1, k - 1)) == k


def test_monomial_rank_permutation_invariance():
    rng = random.Random(7)
    for _ in range(30):
        exps = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 5))]
        base = monomial_rank(tuple(exps))
        rng.shuffle(exps)
        assert monomial_rank(tuple(exps)) == base


def test_monomial_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_rank(())
    with pytest.raises(ValueError):
        monomial_rank((2, 0))
    with pytest.raises(ValueError):
        monomial_rank((1, -2))


def test_instance_validation():
    with pytest.raises(ValueError):
        KInstance(Monomial((1, 1)), 1)
    with pytest.raises(ValueError):
        KInstance(Monomial((1, 1)), 3)  # 3 does not divide 2
    inst = KInstance(Monomial((5, 7)), 3)
    residue, cofactor = reduce_mod_k(inst)
    assert residue.exponents == (2, 1)
    assert cofactor.exponents == (1, 2)


def test_reduce_mod_k_reassembles():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randrange(2, 6)
        nv = rng.randrange(1, 5)
        exps = [rng.randrange(0, 9) for _ in range(nv)]
        shift = (k - sum(exps)) % k
        exps[0] += shift
        inst = KInstance(Monomial(tuple(exps)), k)
        residue, cofactor = reduce_mod_k(inst)
        assert (cofactor ** k) * residue == inst.monomial


def _classes_oracle(n, k):
    seen = {
        tuple(sorted(t))
        for t in itertools.product(range(k), repeat=n + 1)
        if sum(t) % k == 0
    }
    return sorted(seen)


def test_residue_classes_frozen_lists():
    assert residue_classes(1, 4) == [(0, 0), (1, 3), (2, 2)]
    assert residue_classes(2, 3) == [(0, 0, 0), (0, 1, 2), (1, 1, 1), (2, 2, 2)]
    assert residue_classes(3, 3) == [
        (0, 0, 0, 0),
        (0, 0, 1, 2),
        (0, 1, 1, 1),
        (0, 2, 2, 2),
        (1, 1, 2, 2),
    ]


def test_residue_classes_against_oracle():
    for n in range(0, 5):
        for k in range(2, 6):
            assert residue_classes(n, k) == _classes_oracle(n, k), (n, k)


CLASSIFY_CASES = [
    # (exponents, k, lower, upper, exact)
    ((2, 4), 3, 3, 3, True),
    ((4, 1, 1), 3, 3, 3, True),
    ((1, 1, 1), 3, 4, 4, True),
    ((1, 2), 3, 3, 3, True),
    ((3, 1, 1, 1), 3, 3, 4, False),
    ((1, 1, 1, 1, 2), 3, 3, 4, False),
    ((2, 2), 4, 3, 3, True),
    ((1, 3), 4, 4, 4, True),
    ((1, 7), 4, 4, 4, True),
    ((3, 5), 4, 4, 4, True),
    ((1, 1, 1, 1), 4, 8, 8, True),
    ((1, 1, 1, 1, 1), 5, 16, 16, True),
    ((5, 5), 5, 1, 1, True),
    ((6, 3), 3, 1, 1, True),
    ((2, 2, 2), 3, 3, 3, True),
    ((1, 1, 2, 2), 3, 3, 3, True),
    ((1, 2, 2, 2, 2), 3, 3, 3, True),
    ((2, 4), 2, 1, 1, True),
    ((1, 1), 2, 2, 2, True),
    ((1, 1, 1, 1, 1, 1), 6, 32, 32, True),
]


def test_classify_cases():
    for exps, k, lo, hi, exact in CLASSIFY_CASES:
        b = classify(KInstance(Monomial(exps), k))
        assert (b.lower, b.upper, b.exact) == (lo, hi, exact), (exps, k)


def test_lower_bound_cases():
    assert classify(KInstance(Monomial((2, 4)), 2)).lower == 1
    assert classify(KInstance(Monomial((1, 1)), 2)).lower == 2
    assert classify(KInstance(Monomial((1, 2)), 3)).lower == 3


def test_upper_bound_generic_rule():
    # the generic 2^(k-1) bound is grouping with a = (1, ..., 1), attained by
    # x0*...*x5 at k = 6, where the blocks are the variables
    b = classify(KInstance(Monomial((1, 1, 1, 1, 1, 1)), 6))
    assert b.upper <= 2 ** 5
    assert any(r.rule == "block-grouping" and r.bound == 32 for r in b.trace)
    assert _grouping(KInstance(Monomial((1, 1, 1, 1, 1, 1)), 6))[0] == (1,) * 6


def test_classify_trace_is_consistent():
    for exps, k, _, _, _ in CLASSIFY_CASES:
        b = classify(KInstance(Monomial(exps), k))
        assert b.trace, (exps, k)
        for rec in b.trace:
            assert rec.kind in ("lower", "upper", "exact")
            assert rec.bound >= b.lower
            if rec.kind in ("upper", "exact"):
                assert rec.bound >= b.upper


# (exponents, k, the rule decompose builds with); ties go to the later rule
ATTAINING_CASES = [
    ((6, 3), 3, "block-grouping"),
    ((1, 3), 2, "block-grouping"),
    ((2, 4), 3, "block-grouping"),
    ((1, 1, 1, 1, 2), 3, "block-grouping"),
    ((3, 2, 2, 1), 4, "block-grouping"),
    ((2, 2, 2), 3, "block-grouping"),
    ((4, 1, 1), 3, "x4yz-cube-route"),
    ((4, 4, 1), 3, "x4yz-cube-route"),
]


def test_trace_follows_the_table_and_names_the_construction():
    order = [rule.name for rule in RULES]
    assert len(set(order)) == len(order)
    for exps, k, _, hi, _ in CLASSIFY_CASES:
        b = classify(KInstance(Monomial(exps), k))
        positions = [order.index(r.rule) for r in b.trace]
        assert positions == sorted(positions), (exps, k)
        rule = attaining_rule(b)
        assert rule.build is not None and rule.kind != "lower", (exps, k)
        assert any(r.rule == rule.name and r.bound == hi for r in b.trace), (exps, k)
    for exps, k, name in ATTAINING_CASES:
        assert attaining_rule(classify(KInstance(Monomial(exps), k))).name == name, (exps, k)


def test_grouping_blocks_are_distinct():
    # the k blocks of these residues pair up; equal blocks merge into one
    # block of twice the power, so the pattern found has distinct blocks
    for exps, k, pattern in [((4, 4, 4), 6, (4, 2)), ((4, 4, 4, 4), 8, (4, 4)),
                             ((6, 6, 6, 6), 8, (6, 2))]:
        a, blocks = _grouping(KInstance(Monomial(exps), k))
        assert a == pattern, (exps, k)
        assert len(set(blocks)) == len(blocks) == len(a)
        assert {b.degree for b in blocks} == {sum(exps) // k}
        product = Monomial((0,) * len(exps))
        for block, power in zip(blocks, a):
            product = product * block ** power
        assert product == Monomial(exps), (exps, k)


def _grouping_oracle(exps, k) -> int:
    """The least rank of prod y_i^(a_i) over every partition a of k and every
    tuple of degree-d monomials B_i with prod B_i^(a_i) = x^exps, equal
    blocks merged."""
    d, nv = sum(exps) // k, len(exps)
    monomials = [m for m in itertools.product(range(d + 1), repeat=nv) if sum(m) == d]
    best = None
    for parts in range(1, k + 1):
        for a in itertools.product(range(1, k + 1), repeat=parts):
            if sum(a) != k or list(a) != sorted(a):
                continue
            for blocks in itertools.product(monomials, repeat=parts):
                if tuple(map(sum, zip(*[[p * e for e in b] for p, b in zip(a, blocks)]))) != exps:
                    continue
                merged = {}
                for p, b in zip(a, blocks):
                    merged[b] = merged.get(b, 0) + p
                rank = monomial_rank(tuple(merged.values()))
                best = rank if best is None else min(best, rank)
    return best


def test_block_grouping_against_brute_force():
    # every instance with at most 3 variables, k <= 4 and degree <= 3k
    checked = 0
    for k in range(2, 5):
        for degree in range(k, 3 * k + 1, k):
            for exps in _nondecreasing_tuples(3, degree):
                inst = KInstance(Monomial(exps), k)
                bound = next(r.bound for r in classify(inst).trace if r.rule == "block-grouping")
                assert bound == _grouping_oracle(exps, k), (exps, k)
                checked += 1
    assert checked == 68


def test_k3_is_exact_in_three_variables_and_in_four_but_one():
    # the paper's k = 3 classification, to degree 30; the one open instance
    # in four variables is x y z w^3, at [3, 4]
    open_rows = []
    for degree in range(3, 31, 3):
        for exps in _nondecreasing_tuples(4, degree):
            b = classify(KInstance(Monomial(exps), 3))
            if not b.exact:
                open_rows.append((exps, b.lower, b.upper))
    assert open_rows == [((1, 1, 1, 3), 3, 4)]


def test_classify_permutation_and_padding_invariance():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randrange(2, 5)
        nv = rng.randrange(1, 5)
        exps = [rng.randrange(0, 7) for _ in range(nv)]
        shift = (k - sum(exps)) % k
        exps[0] += shift
        base = classify(KInstance(Monomial(tuple(exps)), k))
        rng.shuffle(exps)
        shuffled = classify(KInstance(Monomial(tuple(exps)), k))
        padded = classify(KInstance(Monomial(tuple(exps) + (0, 0)), k))
        assert (base.lower, base.upper) == (shuffled.lower, shuffled.upper)
        assert (base.lower, base.upper) == (padded.lower, padded.upper)


def test_classify_never_worse_after_kth_power_factor():
    # multiplying in a k-th power cannot raise the upper bound
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randrange(2, 5)
        nv = rng.randrange(1, 4)
        exps = [rng.randrange(0, 6) for _ in range(nv)]
        shift = (k - sum(exps)) % k
        exps[0] += shift
        before = classify(KInstance(Monomial(tuple(exps)), k))
        extra = tuple(rng.randrange(0, 3) * k for _ in range(nv))
        grown = tuple(e + x for e, x in zip(exps, extra))
        after = classify(KInstance(Monomial(grown), k))
        assert after.upper <= before.upper, (exps, extra, k)


def _compare_oracle(n):
    best = None
    for k in range(2, 40 * n + 40):
        if 2 ** (k - 1) <= k ** n:
            best = k
    assert best is not None
    # past the scan window the left side has outgrown the right for good
    return best


def test_compare_bounds_values():
    assert compare_bounds(1) == 2
    assert compare_bounds(2) == 6
    assert compare_bounds(3) == 11
    assert compare_bounds(10) == 60


def test_compare_bounds_against_oracle():
    for n in range(1, 12):
        v = compare_bounds(n)
        assert v == _compare_oracle(n), n
        assert 2 ** (v - 1) <= v ** n
        assert 2 ** v > (v + 1) ** n

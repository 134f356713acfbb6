"""Certificate constructions, transformers, and the decomposition pipeline.

Every constructed certificate must verify by exact expansion; counts are
checked against the rank formula and the classifier; the reference checker
``tests/refcheck.py`` gives an independent check.
"""

import random

import pytest

from kwaring.algebra import EMPTY_TOWER, ExtensionTower, RingElement
from kwaring.certfile import serialize
from kwaring.decomp import (
    Certificate,
    CertificateError,
    MalformedCertificateError,
    decompose,
    group_substitute,
    monomial_linear_decomp,
    multiply_cert,
    product_linear,
    special_x04x1x2,
    specialize_cert,
    verify,
)
from kwaring.polynomials import Monomial, Polynomial
from kwaring.rank import KInstance, classify, monomial_rank
from kwaring.rationals import Q

import refcheck
from test_verify_kernels import corrupted


def test_trivial_cert():
    # a pure power M = N^k is one summand, grouping with the pattern (k)
    cert = decompose(KInstance(Monomial((4, 2)), 2))
    assert cert.summand_count == 1 and cert.verified
    assert cert.summands[0][1].terms == {(2, 1): EMPTY_TOWER.one()}


def test_two_square_default_split():
    # x0^3 x1 = X*Y with X = x0^2, Y = x0 x1: (1/4)(X+Y)^2 - (1/4)(X-Y)^2
    cert = decompose(KInstance(Monomial((3, 1)), 2))
    assert cert.k == 2 and cert.summand_count == 2 and cert.verified
    scalars = sorted(s.rational_value() for s, _ in cert.summands)
    assert scalars == [Q(-1, 4), Q(1, 4)]
    x, y = (Polynomial.monomial(EMPTY_TOWER, e, 1) for e in ((2, 0), (1, 1)))
    assert {form for _, form in cert.summands} == {x + y, x - y}


def test_two_square_explicit_split_on_even_exponents():
    cert = group_substitute(product_linear(2), [Monomial((2, 0)), Monomial((0, 2))])
    assert cert.verified and cert.summand_count == 2
    assert cert.target == Monomial((2, 2))


def test_two_square_rejections():
    with pytest.raises(ValueError, match="does not divide"):
        KInstance(Monomial((2, 1)), 2)  # odd degree
    # a split into blocks of unequal degree is refused, and equal blocks
    # cancel a form, which verify refuses as malformed
    with pytest.raises(CertificateError):
        group_substitute(product_linear(2), [Monomial((2, 0)), Monomial((1, 1, 0))])
    with pytest.raises(CertificateError):
        group_substitute(product_linear(2), [Monomial((2, 1)), Monomial((1, 1))])
    with pytest.raises(MalformedCertificateError):
        group_substitute(product_linear(2), [Monomial((1, 1)), Monomial((1, 1))])


def test_product_linear_counts_and_scalars():
    for k in range(2, 7):
        cert = product_linear(k)
        assert cert.verified and cert.summand_count == 2 ** (k - 1)
        assert cert.target.exponents == (1,) * k
    k3 = product_linear(3)
    assert sorted(abs(s.rational_value()) for s, _ in k3.summands) == [Q(1, 24)] * 4


def test_product_linear_is_the_averaging_certificate_over_signs():
    for k in range(2, 9):
        product, averaged = product_linear(k), monomial_linear_decomp((1,) * k)
        assert product.verified and averaged.verified
        lines = [[line for line in serialize(cert).splitlines() if not line.startswith("note: ")]
                 for cert in (product, averaged)]
        assert lines[0] == lines[1]
        assert serialize(product) != serialize(averaged)


def test_monomial_linear_decomp_matches_rank_formula():
    cases = [
        (1, 1), (1, 2), (2, 2), (1, 3), (3, 3),
        (1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 3),
        (1, 1, 1, 1),
    ]
    for exps in cases:
        cert = monomial_linear_decomp(exps)
        assert cert.verified, exps
        assert cert.summand_count == monomial_rank(exps), exps
        assert cert.k == sum(exps)
        for _, form in cert.summands:
            assert set(map(sum, form.terms)) == {1}


def test_monomial_linear_decomp_degree_one():
    cert = monomial_linear_decomp((1,))
    assert cert.k == 1 and cert.summand_count == 1 and cert.verified


def test_special_three_cube_certificate():
    cert = special_x04x1x2()
    assert cert.verified and cert.summand_count == 3
    assert cert.target.exponents == (4, 1, 1)
    assert cert.tower.names == ("u", "v")


def test_rational_stand_in_for_square_root_fails():
    # replacing the square root of 1/6 by the rational 1/6 breaks the identity
    good = special_x04x1x2()
    tower = good.tower
    x0sq = Polynomial.monomial(tower, (2, 0, 0), 1)
    x1x2 = Polynomial.monomial(tower, (0, 1, 1), 1)
    v = tower.generator_element("v")
    bad = Certificate(
        variables=("x0", "x1", "x2"),
        k=3,
        target=Monomial((4, 1, 1)),
        tower=tower,
        summands=(
            (tower.one(), x0sq * Q(1, 6) + x1x2),
            (tower.one(), x0sq * Q(-1, 6) + x1x2),
            (tower.one(), x1x2 * v),
        ),
    )
    assert verify(bad) is False
    assert verify(good) is True


def test_verify_detects_wrong_identity():
    cert = product_linear(3)
    flipped = Certificate(
        variables=cert.variables,
        k=cert.k,
        target=cert.target,
        tower=cert.tower,
        summands=((-cert.summands[0][0], cert.summands[0][1]),) + cert.summands[1:],
    )
    assert verify(flipped) is False


def _rational_scalar_cert(scalars):
    x0 = Polynomial.variable(EMPTY_TOWER, 1, 0)
    return Certificate(("x0",), 1, Monomial((1,)), EMPTY_TOWER,
                       tuple((s, x0) for s in scalars))


def test_verify_clears_each_rational_scalar_as_its_own():
    """Plain rational scalars become a fresh tower element each: none may be
    read as another's cleared value, however often verify runs."""
    false = _rational_scalar_cert([Q(1, 16)] + [Q(1, 16) + j % 2 for j in range(1, 16)])
    assert sum(s for s, _ in false.summands) == 9
    true = _rational_scalar_cert([Q(1, 16)] * 16)
    assert [verify(false) for _ in range(50)] == [False] * 50
    assert [verify(true) for _ in range(50)] == [True] * 50


def test_empty_monomial_is_refused():
    """A monomial in no variables would serialize with an empty variable
    list, which parse rejects, so the library refuses it as the CLI does."""
    with pytest.raises(ValueError, match="empty monomial"):
        decompose(KInstance(Monomial(()), 3))
    with pytest.raises(MalformedCertificateError, match="bad variable names"):
        Certificate((), 2, Monomial(()), EMPTY_TOWER, ((Q(1), Polynomial.zero(EMPTY_TOWER, 0)),))


def test_verify_empty_summands():
    cert = Certificate(
        variables=("x0", "x1"),
        k=2,
        target=Monomial((1, 1)),
        tower=EMPTY_TOWER,
        summands=(),
    )
    assert verify(cert) is False


def test_verify_malformed():
    t = EMPTY_TOWER
    wrong_arity = Certificate(
        variables=("x0", "x1"),
        k=2,
        target=Monomial((1, 1)),
        tower=t,
        summands=((t.one(), Polynomial.variable(t, 3, 0)),),
    )
    with pytest.raises(MalformedCertificateError):
        verify(wrong_arity)
    inhomogeneous = Certificate(
        variables=("x0", "x1"),
        k=2,
        target=Monomial((1, 1)),
        tower=t,
        summands=(
            (t.one(), Polynomial.variable(t, 2, 0) + Polynomial.constant(t, 2, 1)),
        ),
    )
    with pytest.raises(MalformedCertificateError):
        verify(inhomogeneous)
    bad_degree = Certificate(
        variables=("x0", "x1"),
        k=2,
        target=Monomial((2, 2)),
        tower=t,
        summands=((t.one(), Polynomial.variable(t, 2, 0)),),
    )
    with pytest.raises(MalformedCertificateError):
        verify(bad_degree)
    i = EMPTY_TOWER.extend("i", (Q(1), Q(0), Q(1)))
    foreign_scalar = Certificate(
        variables=("x0",),
        k=1,
        target=Monomial((1,)),
        tower=t,
        summands=((i.one(), Polynomial.variable(t, 1, 0)),),
    )
    with pytest.raises(MalformedCertificateError, match="scalar"):
        verify(foreign_scalar)


@pytest.mark.parametrize("variables", [("a b",), ("x0", "x0"), ("",), ("0x",)])
def test_variable_names_a_certificate_file_cannot_carry_are_rejected(variables):
    nv = len(variables)
    x0 = Polynomial.variable(EMPTY_TOWER, nv, 0)
    with pytest.raises(MalformedCertificateError, match="variable names"):
        Certificate(variables, 1, Monomial((1,) + (0,) * (nv - 1)), EMPTY_TOWER, ((Q(1), x0),))


def test_group_substitute_to_squares():
    base = monomial_linear_decomp((1, 2))  # k=3, 3 summands
    cert = group_substitute(
        base, [Monomial((2, 0, 0)), Monomial((0, 1, 1))]
    )
    assert cert.verified and cert.summand_count == 3
    assert cert.target.exponents == (2, 2, 2)
    assert cert.k == 3


def test_group_substitute_rejects_mixed_degrees():
    base = monomial_linear_decomp((1, 2))
    with pytest.raises(CertificateError):
        group_substitute(base, [Monomial((1, 0)), Monomial((1, 1))])
    with pytest.raises(CertificateError):
        group_substitute(base, [Monomial((1, 0))])


def test_specialize_cert_folds_target():
    base = product_linear(3)
    cert = specialize_cert(base, {2: 1})
    assert cert.verified and cert.target.exponents == (1, 2, 0)
    assert cert.summand_count == base.summand_count


def test_specialize_cert_rejects_vanishing_form():
    base = product_linear(2)  # forms x0 + x1 and x0 - x1
    with pytest.raises(MalformedCertificateError):
        specialize_cert(base, {1: 0})


def test_multiply_cert():
    base = product_linear(2)
    cert = multiply_cert(base, Monomial((1, 2)))
    assert cert.verified and cert.target.exponents == (3, 5)
    assert multiply_cert(base, Monomial((0, 0))) is base


def test_group_substitute_keeps_arity_of_a_cancelled_form():
    base = product_linear(2)  # forms x0 + x1 and x0 - x1
    with pytest.raises(MalformedCertificateError, match="nonzero homogeneous"):
        group_substitute(base, [Monomial((1,)), Monomial((1,))])


def test_transformers_do_no_tower_arithmetic(monkeypatch):
    base = monomial_linear_decomp((1, 2))
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    mul = counting("RingElement.__mul__", RingElement.__mul__)
    monkeypatch.setattr(RingElement, "__mul__", mul)
    monkeypatch.setattr(RingElement, "__rmul__", mul)
    monkeypatch.setattr(ExtensionTower, "normalize",
                        counting("ExtensionTower.normalize", ExtensionTower.normalize))
    cert = group_substitute(base, [Monomial((2, 0, 0)), Monomial((0, 1, 1))])
    cert = specialize_cert(cert, {2: 1})
    cert = multiply_cert(cert, Monomial((1, 0, 2)))
    assert cert.verified and cert.target.exponents == (5, 4, 6)
    assert calls == []


def test_exact_point_checks():
    """The reference checker accepts each certificate and rejects a seeded
    single-digit corruption of it."""
    rng = random.Random(5)
    certs = [
        decompose(KInstance(Monomial((3, 1)), 2)),
        product_linear(3),
        special_x04x1x2(),
        monomial_linear_decomp((2, 2)),
        decompose(KInstance(Monomial((3, 1, 1, 1)), 3)),
    ]
    for cert in certs:
        text = serialize(cert)
        assert refcheck.check(text) is True, cert.target
        assert refcheck.check(corrupted(text, rng)) is False, cert.target


# -- randomized transformer pipelines ---------------------------------------

SAFE_BASES = [(1, 2), (2, 2), (2, 4), (1, 2, 2)]


def _random_pipeline(rng):
    """Averaging base, group_substitute, specialize_cert, multiply_cert, in order.

    Bases use even non-anchor exponents so every root of unity involved has
    odd order; with pairwise-distinct monomial images a single identification
    then merges at most two terms, whose coefficient sum cannot vanish.
    """
    base_exps = SAFE_BASES[rng.randrange(len(SAFE_BASES))]
    cert = monomial_linear_decomp(base_exps)
    nv = len(base_exps)

    out_nv = rng.randrange(nv, 5)
    if rng.randrange(2):
        # injective variable renaming
        slots = list(range(out_nv))
        rng.shuffle(slots)
        images = [Monomial(tuple(1 if j == slots[i] else 0 for j in range(out_nv)))
                  for i in range(nv)]
    else:
        # distinct quadratic monomial images
        pool = [
            (i, j) for i in range(out_nv) for j in range(i, out_nv)
        ]
        rng.shuffle(pool)
        images = []
        for i, j in pool[:nv]:
            exps = [0] * out_nv
            exps[i] += 1
            exps[j] += 1
            images.append(Monomial(tuple(exps)))
    cert = group_substitute(cert, images)

    # pick an identification that keeps every form nonzero
    for _ in range(20):
        src = rng.randrange(out_nv)
        dst = rng.randrange(out_nv)
        if dst == src:
            continue
        try:
            cert = specialize_cert(cert, {src: dst})
            break
        except MalformedCertificateError:
            continue

    mult = Monomial(tuple(rng.randrange(0, 3) for _ in range(out_nv)))
    cert = multiply_cert(cert, mult)
    return base_exps, cert


def test_randomized_transformer_pipelines():
    rng = random.Random(20260819)
    for _ in range(12):
        base_exps, cert = _random_pipeline(rng)
        assert verify(cert)
        assert cert.summand_count == monomial_rank(base_exps)


# -- full decomposition pipeline ---------------------------------------------

NAMED_DECOMPOSE_CASES = [
    ((2, 4), 3, 3),
    ((4, 1, 1), 3, 3),
    ((1, 1, 1), 3, 4),
    ((3, 1, 1, 1), 3, 4),
    ((1, 1, 1, 1, 2), 3, 4),
    ((2, 2), 4, 3),
    ((1, 3), 4, 4),
    ((1, 7), 4, 4),
    ((3, 5), 4, 4),
    ((1, 1, 1, 1), 4, 8),
    ((1, 1, 1, 1, 1), 5, 16),
    ((5, 5), 5, 1),
    ((2, 2, 2), 3, 3),
    ((1, 1, 2, 2), 3, 3),
    ((1, 2, 2, 2, 2), 3, 3),
    ((1, 3), 2, 2),
    ((6, 3), 3, 1),
    ((4, 4, 4), 6, 5),
]


def test_decompose_named_cases():
    for exps, k, count in NAMED_DECOMPOSE_CASES:
        inst = KInstance(Monomial(exps), k)
        cert = decompose(inst)
        assert cert.verified, (exps, k)
        assert cert.summand_count == count, (exps, k)
        assert cert.target == inst.monomial and cert.k == k


def test_decompose_count_equals_classifier_upper_on_grid():
    import itertools

    for k in (2, 3, 4):
        for nv in (1, 2, 3):
            for exps in itertools.product(range(0, 6), repeat=nv):
                if sum(exps) == 0 or sum(exps) % k != 0:
                    continue
                inst = KInstance(Monomial(exps), k)
                cert = decompose(inst)
                assert cert.verified, (exps, k)
                assert cert.summand_count == classify(inst).upper, (exps, k)


def test_decompose_uses_three_cube_tower():
    cert = decompose(KInstance(Monomial((4, 1, 1)), 3))
    assert cert.tower.names == ("u", "v")
    assert cert.summand_count == 3

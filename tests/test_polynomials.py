"""Polynomial arithmetic, substitution, and specialization.

Exponentiation is cross-checked against repeated multiplication and against
numeric evaluation; substitute is checked as a ring homomorphism.
"""

import itertools
import math
import random

import pytest

from kwaring.algebra import EMPTY_TOWER, roots_of_unity_tower, unity_root
from kwaring.polynomials import Monomial, Polynomial, multinomial_table
from kwaring.rationals import Q


def test_monomial_basics():
    m = Monomial((2, 0, 3))
    assert m.degree == 5
    assert m.nvars == 3
    assert m.live_indices() == (0, 2)
    assert not m.is_one() and Monomial((0, 0)).is_one()
    assert m.text() == "x0^2*x2^3"
    assert (m * Monomial((1, 1, 0))).exponents == (3, 1, 3)
    assert (m ** 2).exponents == (4, 0, 6)


def test_monomial_kth_root():
    m = Monomial((4, 2, 0))
    assert m.is_kth_power(2)
    assert m.kth_root(2).exponents == (2, 1, 0)
    assert not m.is_kth_power(3)
    with pytest.raises(ValueError):
        m.kth_root(3)
    with pytest.raises(ValueError):
        Monomial((1, -1))


def _x(tower, nvars, i):
    return Polynomial.variable(tower, nvars, i)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(1, 7))
def test_multinomial_table_matches_an_independent_oracle(n, k):
    positions, counts, multinomials = multinomial_table(n, k)
    expected = sorted((b for b in itertools.product(range(k + 1), repeat=n) if sum(b) == k),
                      reverse=True)
    assert [tuple(row) for row in counts.tolist()] == expected
    assert [tuple(row) for row in positions.tolist()] == list(
        itertools.combinations_with_replacement(range(n), k))
    assert len(multinomials) == math.comb(n + k - 1, k)
    assert multinomials == tuple(
        math.factorial(k) // math.prod(map(math.factorial, b)) for b in expected)
    assert sum(multinomials) == n ** k
    for array in (positions, counts):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0


def test_constructors_and_queries():
    t = EMPTY_TOWER
    p = _x(t, 2, 0) + _x(t, 2, 1) * Q(3)
    assert (p - p).is_zero()


def test_pow_matches_repeated_multiplication():
    tower = roots_of_unity_tower([3])
    z = unity_root(tower, 3)
    rng = random.Random(99)
    for _ in range(15):
        nv = rng.randrange(1, 4)
        p = Polynomial.zero(tower, nv)
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(0, 3) for _ in range(nv))
            c = tower.scalar(Q(rng.randrange(-3, 4))) + z * Q(rng.randrange(-1, 2))
            p = p + Polynomial.monomial(tower, exps, c)
        n = rng.randrange(0, 5)
        slow = Polynomial.constant(tower, nv, 1)
        for _ in range(n):
            slow = slow * p
        assert p ** n == slow, (p.text(), n)


def _substitute_reference(p, images, nvars):
    """Substitution built from Polynomial * and ** on the images' polynomials."""
    out = Polynomial.zero(p.tower, nvars)
    for e, c in p.terms.items():
        t = Polynomial.constant(p.tower, nvars, c)
        for i, a in enumerate(e):
            if a:
                t = t * images[i].to_polynomial(p.tower) ** a
        out = out + t
    return out


def test_substitute_is_a_homomorphism():
    tower = roots_of_unity_tower([3])
    z = unity_root(tower, 3)
    x0, x1, x2 = (_x(tower, 3, i) for i in range(3))
    # x0 and x1*x2 share an image, so terms collide; in p they cancel
    img = [Monomial((1, 1)), Monomial((1, 0)), Monomial((0, 1))]
    p = x0 * z - x1 * x2 * z + x1 * x1
    q = x0 * x1 + x2 * (z + Q(1)) - x1 * x1 * x2 * Q(1, 2)
    assert p.substitute(img) == Polynomial.monomial(tower, (2, 0))
    for f in (p, q, p * q, p + q, p ** 3):
        assert f.substitute(img) == _substitute_reference(f, img, 2)
    assert (p * q).substitute(img) == p.substitute(img) * q.substitute(img)
    assert (p + q).substitute(img) == p.substitute(img) + q.substitute(img)
    assert (p ** 3).substitute(img) == p.substitute(img) ** 3


def test_substitute_errors():
    t = EMPTY_TOWER
    p = _x(t, 2, 0) + _x(t, 2, 1)
    with pytest.raises(ValueError):
        p.substitute([Monomial((1, 0))])  # x1 has no image
    with pytest.raises(ValueError):
        p.substitute([Monomial((1, 0)), Monomial((1, 0, 0))])  # mixed variable counts


def test_specialize_folds_variables():
    t = EMPTY_TOWER
    x0, x1, x2 = (_x(t, 3, i) for i in range(3))
    p = x0 * x1 + x2 * x2
    q = p.specialize({1: 0, 2: 0})
    assert q == x0 * x0 + x0 * x0  # x0^2 coefficient 2
    assert q.terms[(2, 0, 0)].rational_value() == Q(2)
    with pytest.raises(ValueError):
        p.specialize({0: 5})
    with pytest.raises(ValueError):
        p.specialize({0: 1, 1: 2})  # chained


def test_specialize_can_cancel():
    t = EMPTY_TOWER
    x0, x1 = _x(t, 2, 0), _x(t, 2, 1)
    p = x0 * x0 - x1 * x1
    assert p.specialize({1: 0}).is_zero()


def test_text_order_is_graded_lex_descending():
    t = EMPTY_TOWER
    x0, x1 = _x(t, 2, 0), _x(t, 2, 1)
    p = x1 + x0 + x0 * x1
    assert p.text() == "(1)*x0^1*x1^1 + (1)*x0^1 + (1)*x1^1"
    assert Polynomial.zero(t, 2).text() == "0"


def test_scalar_multiplication():
    t = EMPTY_TOWER
    p = _x(t, 2, 0) * Q(1, 2)
    assert (p * Q(0)).is_zero()
    assert (p * 4).terms[(1, 0)].rational_value() == Q(2)

"""Extension tower arithmetic against independent oracles.

Cyclotomic coefficients are checked against the divisor-product identity and
against numeric evaluation at primitive roots; tower reductions are checked
against exact root-of-unity power sums and against floating-point images of
every generator.
"""

import cmath
import math
import random

import pytest

from kwaring.algebra import (
    EMPTY_TOWER,
    ExtensionTower,
    IntegerStructure,
    RingElement,
    TowerError,
    cyclotomic_poly,
    roots_of_unity_tower,
    unity_root,
)
from kwaring.decomp import special_x04x1x2
from kwaring.rationals import Q

# Ascending coefficient tuples, standard table values.
KNOWN_CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_table():
    for m, coeffs in KNOWN_CYCLOTOMIC.items():
        assert cyclotomic_poly(m) == tuple(Q(c) for c in coeffs)


def test_cyclotomic_divisor_product():
    # prod over d | m of Phi_d equals x^m - 1
    for m in range(1, 25):
        prod = [Q(1)]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_poly(d)
                out = [Q(0)] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expected = [Q(-1)] + [Q(0)] * (m - 1) + [Q(1)]
        assert prod == expected, m


def test_cyclotomic_numeric_roots():
    for m in range(1, 25):
        coeffs = cyclotomic_poly(m)
        for j in range(1, m + 1):
            if math.gcd(j, m) != 1:
                continue
            z = cmath.exp(2j * cmath.pi * j / m)
            value = sum(complex(c) * z ** i for i, c in enumerate(coeffs))
            assert abs(value) < 1e-9, (m, j)


def test_degree_one_rejected():
    with pytest.raises(TowerError):
        EMPTY_TOWER.extend("a", (Q(1), Q(1)))
    with pytest.raises(TowerError):
        EMPTY_TOWER.extend("a", (Q(1), Q(2), Q(2)))  # not monic


def test_duplicate_names_rejected():
    t = EMPTY_TOWER.extend("a", (Q(1), Q(0), Q(1)))
    with pytest.raises(TowerError):
        t.extend("a", (Q(2), Q(0), Q(0), Q(1)))


@pytest.mark.parametrize("name", ["u v", "", "1u", "u-1", "u^1"])
def test_names_a_certificate_file_cannot_carry_are_rejected(name):
    with pytest.raises(TowerError, match="generator name"):
        EMPTY_TOWER.extend(name, (Q(-1, 6), Q(0), Q(1)))


@pytest.mark.parametrize("tower", [roots_of_unity_tower([5, 7]), special_x04x1x2().tower],
                         ids=["z5, z7", "special_x04x1x2"])
def test_table_build_does_no_element_arithmetic(monkeypatch, tower):
    """The table comes from the defining polynomials' coefficients alone:
    building it calls neither normalize nor the element product."""
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
    ring = IntegerStructure(ExtensionTower(tower.generators))
    assert ring.size == len(tower.basis) and calls == []


def test_towers_compare_by_their_generators():
    """Towers built separately from the same generators are equal and hash
    equal; one differing lower coefficient makes them unequal."""
    def build(c, sign):
        t = EMPTY_TOWER.extend("u", (c, Q(0), Q(1)))
        return t.extend("w", (sign * t.generator_element("u"), Q(0), Q(1)))

    a, b = build(Q(-1, 6), -1), build(Q(-1, 6), -1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert build(Q(-1, 7), -1) != a  # u^2 = 1/7 against u^2 = 1/6
    assert build(Q(-1, 6), 1) != a  # w^2 = -u against w^2 = u
    # lower coefficients are elements of the preceding subtower
    assert all(isinstance(c, RingElement) for g in a.generators for c in g.lower_coeffs)
    assert a.generators[1].lower_coeffs[0].tower == ExtensionTower(a.generators[:1])


def test_roots_of_unity_tower_small_orders_are_rational():
    # orders 1 and 2 need no generators at all
    t = roots_of_unity_tower([1, 2])
    assert t.names == ()
    assert unity_root(t, 1) == t.one()
    assert unity_root(t, 2) == t.scalar(Q(-1))


def test_power_sums_exact():
    # sum over j of z^(j*e) equals m when m | e and 0 otherwise
    for m in range(1, 13):
        tower = roots_of_unity_tower([m])
        z = unity_root(tower, m)
        for e in range(0, 25):
            total = tower.zero()
            for j in range(m):
                total = total + z ** (j * e)
            expected = tower.scalar(Q(m)) if e % m == 0 else tower.zero()
            assert total == expected, (m, e)


def test_mixed_tower_power_sum():
    tower = roots_of_unity_tower([3, 4, 5])
    for m in (3, 4, 5):
        z = unity_root(tower, m)
        assert z ** m == tower.one()
        total = tower.zero()
        for j in range(m):
            total = total + z ** j
        assert total == tower.zero()


def test_nested_generator_reduction():
    # v^3 = -2 on top of u^2 = 1/6
    t = EMPTY_TOWER.extend("u", (Q(-1, 6), Q(0), Q(1)))
    t = t.extend("v", (Q(2), Q(0), Q(0), Q(1)))
    u = t.generator_element("u")
    v = t.generator_element("v")
    assert u * u == t.scalar(Q(1, 6))
    assert v ** 3 == t.scalar(Q(-2))
    assert (u * v) ** 6 == t.scalar(Q(1, 216) * 4)
    assert ((u + v) - v) == u


def test_ring_axioms_randomized():
    tower = roots_of_unity_tower([3, 4])
    rng = random.Random(20260819)

    def rand_element():
        out = tower.zero()
        for _ in range(rng.randrange(0, 4)):
            term = tower.scalar(Q(rng.randrange(-4, 5), rng.randrange(1, 4)))
            z3 = unity_root(tower, 3) ** rng.randrange(0, 3)
            z4 = unity_root(tower, 4) ** rng.randrange(0, 4)
            out = out + term * z3 * z4
        return out

    for _ in range(40):
        a, b, c = rand_element(), rand_element(), rand_element()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert a - a == tower.zero()


def test_complex_roots_are_roots():
    t = EMPTY_TOWER.extend("u", (Q(-1, 6), Q(0), Q(1)))
    t = t.extend("v", (Q(2), Q(0), Q(0), Q(1)))
    ru, rv = t.complex_roots()
    assert abs(ru ** 2 - 1.0 / 6.0) < 1e-9
    assert abs(rv ** 3 + 2.0) < 1e-9


def test_evaluate_matches_structure():
    tower = roots_of_unity_tower([3])
    z = unity_root(tower, 3)
    roots = tower.complex_roots()
    value = (z ** 2 + z + tower.one()).evaluate(roots)
    assert abs(value) < 1e-9
    w = roots[0]
    assert abs(w ** 3 - 1) < 1e-9 and abs(w - 1) > 0.5


def test_text_canonical_forms():
    tower = roots_of_unity_tower([3, 4])
    z3 = unity_root(tower, 3)
    z4 = unity_root(tower, 4)
    assert tower.zero().text() == "0"
    assert tower.one().text() == "(1)*z3^0*z4^0"
    el = z3 * z4 * Q(-1, 6)
    assert el.text() == "(-1/6)*z3^1*z4^1"
    two_terms = z3 + tower.scalar(Q(2))
    assert two_terms.text() == "(2)*z3^0*z4^0 + (1)*z3^1*z4^0"


def test_tower_equality_and_reuse():
    t1 = roots_of_unity_tower([3, 4])
    t2 = roots_of_unity_tower([4, 3])
    assert t1 == t2
    assert ExtensionTower(t1.generators) == t1


@pytest.mark.parametrize("tower", [EMPTY_TOWER, roots_of_unity_tower([3])], ids=["Q", "z3"])
def test_clear_never_mistakes_a_new_element_for_a_freed_one(tower):
    """A temporary freed after one ``clear`` must not lend its cleared vector
    to the next temporary at the same address."""
    ring = tower.integer_structure()
    got = [ring.clear([tower.scalar(Q(2 * j + 1, 16))]) for j in range(16)]
    assert got == [([(2 * j + 1,) + (0,) * (ring.size - 1)], 16) for j in range(16)]


@pytest.mark.parametrize("tower", [EMPTY_TOWER, roots_of_unity_tower([3])], ids=["Q", "z3"])
def test_rational_element_hashes_as_its_value(tower):
    """Equal objects hash alike: a rational element is found under its
    rational value in a dict, and the other way round."""
    for q in (Q(1, 2), Q(0), Q(-3), Q(7, 6)):
        el = tower.scalar(q)
        assert el == q and hash(el) == hash(q)
        assert {q: 1}.get(el) == 1 and {el: 1}.get(q) == 1
    z = (tower.one() + tower.one()) * Q(1, 4)
    assert z == Q(1, 2) and hash(z) == hash(Q(1, 2))


def test_elements_of_different_towers_are_unequal():
    """Rational elements of two towers hash alike but are not equal, so both
    can share a dict or a set; arithmetic across towers still raises."""
    z3 = roots_of_unity_tower([3])
    one_q, one_z3 = EMPTY_TOWER.one(), z3.one()
    assert one_q != one_z3 and not one_q == one_z3
    assert len({one_q: 0, one_z3: 1}) == 2 and len({one_q, one_z3}) == 2
    with pytest.raises(TowerError):
        one_q + one_z3

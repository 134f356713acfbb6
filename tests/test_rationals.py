"""Rational scalar helpers: reduction and coercion."""

from fractions import Fraction

import pytest

from kwaring.rationals import Q, as_rational, is_rational


def test_arithmetic_reduces():
    assert Q(2, 4) == Q(1, 2)
    assert Q(1, 3) + Q(1, 6) == Q(1, 2)
    assert Q(-6, 4) * Q(2, 3) == Q(-1)


def test_is_rational():
    assert is_rational(3)
    assert is_rational(Q(1, 2))
    assert is_rational(Fraction(1, 2))
    assert not is_rational(0.5)
    assert not is_rational("1/2")


def test_as_rational():
    assert as_rational(5) == Q(5)
    assert as_rational(Fraction(3, 4)) == Q(3, 4)
    with pytest.raises(TypeError):
        as_rational(0.5)


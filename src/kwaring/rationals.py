"""Exact rational scalars.

``Q`` is the stdlib Fraction: it reduces automatically and prints as ``n``
or ``n/d``, which is the text form the serializers rely on.
"""

from __future__ import annotations

from fractions import Fraction as Q

# ASCII digits, no "+", no leading zeros and no "-0"
RATIONAL_PATTERN = r"(?:0|-?[1-9][0-9]*)(?:/[1-9][0-9]*)?"


def is_rational(x) -> bool:
    return isinstance(x, (int, Q))


def as_rational(x):
    """Coerce an int or Fraction to Q."""
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    raise TypeError(f"not a rational scalar: {x!r}")

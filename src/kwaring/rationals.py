"""Exact rational scalars.

gmpy2's mpq is used when it is installed (the optional ``fast`` extra);
the stdlib Fraction is the fallback.  Both share the numerator/denominator
API, reduce automatically, and print as ``n`` or ``n/d``, which is the text
form the serializers rely on.
"""

from __future__ import annotations

from fractions import Fraction
import re

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 is optional
    Q = Fraction

_QTYPE = type(Q(0))
# ASCII digits, no "+", no leading zeros and no "-0"
RATIONAL_PATTERN = r"(?:0|-?[1-9][0-9]*)(?:/[1-9][0-9]*)?"
_RAT_RE = re.compile(RATIONAL_PATTERN)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction, _QTYPE))


def as_rational(x):
    """Coerce an int, Fraction or Q to the internal rational type."""
    if isinstance(x, _QTYPE):
        return x
    if isinstance(x, (int, Fraction)):
        return Q(x)
    raise TypeError(f"not a rational scalar: {x!r}")


def rational_text(q) -> str:
    # reduced "n" or "n/d", denominator positive
    return str(q)


def parse_rational(s: str):
    s = s.strip()
    if not _RAT_RE.fullmatch(s):
        raise ValueError(f"malformed rational {s!r}")
    return Q(s)

"""Sparse multivariate polynomials with extension-tower coefficients.

Terms are stored in a dict keyed by exponent tuples; coefficients are
normal-form ring elements and zero coefficients are never kept.  The
canonical term order used for printing and serialization is graded
lexicographic, descending (higher total degree first, ties broken by the
exponent tuple, x0-major).  Exponentiation uses binary powering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb, factorial

import numpy as np

from .algebra import ExtensionTower, RingElement, TowerError, binary_power
from .rationals import is_rational


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector (coefficient 1)."""

    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be non-negative")
        object.__setattr__(self, "exponents", exps)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def live_indices(self) -> tuple:
        return tuple(i for i, e in enumerate(self.exponents) if e > 0)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def is_kth_power(self, k: int) -> bool:
        return all(e % k == 0 for e in self.exponents)

    def kth_root(self, k: int) -> "Monomial":
        if not self.is_kth_power(k):
            raise ValueError("not a k-th power")
        return Monomial(tuple(e // k for e in self.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(other.exponents) != len(self.exponents):
            raise ValueError("variable counts differ")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, n: int) -> "Monomial":
        if n < 0:
            raise ValueError("negative power")
        return Monomial(tuple(e * n for e in self.exponents))

    def text(self) -> str:
        parts = [f"x{i}^{e}" for i, e in enumerate(self.exponents) if e > 0]
        return "*".join(parts) if parts else "1"

    def to_polynomial(self, tower: ExtensionTower) -> "Polynomial":
        return Polynomial.monomial(tower, self.exponents, 1)


# Sizes kept by ``multinomial_table``; a search problem reads four, a verify
# one per support size.
TABLE_CACHE_SIZE = 32


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def multinomial_table(n: int, k: int):
    """The multinomial expansion of an n-term sum to the k-th power.

    One row per k-multiset of the positions 0..n-1, in
    ``combinations_with_replacement`` order, given three ways: the positions
    as a read-only (rows, k) array, the counts b (the row's exponent tuple,
    so rows run in descending lexicographic order) as a read-only (rows, n)
    int64 array, and the multinomial coefficients k! / prod b_u! as a tuple
    of ints.
    """
    rows = comb(n + k - 1, k)
    positions = np.fromiter(chain.from_iterable(combinations_with_replacement(range(n), k)),
                            dtype=np.intp, count=rows * k).reshape(rows, k)
    counts = np.zeros((rows, n), dtype=np.int64)
    np.add.at(counts, (np.arange(rows)[:, None], positions), 1)
    positions.flags.writeable = counts.flags.writeable = False
    factorials = np.array([factorial(b) for b in range(k + 1)], dtype=object)
    multinomials = tuple((factorials[k] // factorials[counts].prod(axis=1)).tolist())
    return positions, counts, multinomials


def _order_key(e):
    return (sum(e), e)


class Polynomial:
    """Sparse polynomial over an extension tower.  Treated as immutable."""

    __slots__ = ("tower", "nvars", "terms")

    def __init__(self, tower: ExtensionTower, nvars: int, terms: dict):
        self.tower = tower
        self.nvars = nvars
        self.terms = terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, tower: ExtensionTower, nvars: int) -> "Polynomial":
        return cls(tower, nvars, {})

    @classmethod
    def constant(cls, tower: ExtensionTower, nvars: int, c) -> "Polynomial":
        el = tower._coerce(c)
        if el.is_zero():
            return cls.zero(tower, nvars)
        return cls(tower, nvars, {(0,) * nvars: el})

    @classmethod
    def monomial(cls, tower: ExtensionTower, exponents, c=1) -> "Polynomial":
        el = tower._coerce(c)
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be non-negative")
        if el.is_zero():
            return cls.zero(tower, len(exps))
        return cls(tower, len(exps), {exps: el})

    @classmethod
    def variable(cls, tower: ExtensionTower, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        e = [0] * nvars
        e[i] = 1
        return cls(tower, nvars, {tuple(e): tower.one()})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in canonical order (graded lex, descending)."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_order_key, reverse=True)]

    def _check(self, other: "Polynomial"):
        if self.tower != other.tower:
            raise TowerError("mixed towers in polynomial arithmetic")
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            prev = out.get(e)
            s = c if prev is None else prev + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.tower, self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.tower, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (RingElement, int)) or is_rational(other):
            el = self.tower._coerce(other)
            if el.is_zero():
                return Polynomial.zero(self.tower, self.nvars)
            return Polynomial(
                self.tower, self.nvars, {e: c * el for e, c in self.terms.items()}
            )
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prev = out.get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial(self.tower, self.nvars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        return binary_power(self, n) if n else Polynomial.constant(self.tower, self.nvars, 1)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.tower == other.tower
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.tower, self.nvars, tuple(sorted((e, c.text()) for e, c in self.terms.items())))
        )

    # -- structural maps -----------------------------------------------------

    def map_exponents(self, fn, nvars: int) -> "Polynomial":
        """Send each term's exponent tuple e to fn(e), keeping its coefficient.

        Terms that land on one tuple are summed and zero sums dropped.  The
        result has ``nvars`` variables, also when every term cancels.
        """
        out: dict = {}
        for e, c in self.terms.items():
            key = fn(e)
            prev = out.get(key)
            s = c if prev is None else prev + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return Polynomial(self.tower, nvars, out)

    def substitute(self, images) -> "Polynomial":
        """Replace each variable x_i by the monomial images[i] (a ring homomorphism).

        ``images`` holds one monomial per variable, all over one variable count.
        """
        if len(images) != self.nvars:
            raise ValueError(f"{len(images)} images for {self.nvars} variables")
        counts = {img.nvars for img in images}
        if len(counts) > 1:
            raise ValueError("images disagree on variable count")
        out_nvars = counts.pop() if counts else 0
        columns = [img.exponents for img in images]

        def image(e):
            out = [0] * out_nvars
            for a, column in zip(e, columns):
                if a:
                    for j, f in enumerate(column):
                        out[j] += a * f
            return tuple(out)

        return self.map_exponents(image, out_nvars)

    def specialize(self, identifications: dict) -> "Polynomial":
        """Identify variables (src -> dst), keeping the ambient variable set.

        Applied simultaneously; a destination may not itself be re-mapped.
        """
        for src, dst in identifications.items():
            if not (0 <= src < self.nvars and 0 <= dst < self.nvars):
                raise ValueError("identification index out of range")
            if dst in identifications and identifications[dst] != dst:
                raise ValueError("chained identifications are ambiguous")
        n = self.nvars
        return self.substitute([
            Monomial(tuple(int(j == identifications.get(i, i)) for j in range(n)))
            for i in range(n)
        ])

    # -- output ------------------------------------------------------------

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            coef = c.text()
            if sum(1 for a in c.numerators if a) > 1:
                coef = f"({coef})"
            mono = Monomial(e).text()
            parts.append(coef if mono == "1" else f"{coef}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.text()})"

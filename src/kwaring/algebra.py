"""Exact arithmetic over towers of monic algebraic extensions of the rationals.

The coefficient domain for everything exact in this package is a quotient ring

    Q[g1, ..., gr] / (p1(g1), p2(g1, g2), ..., pr(g1, ..., gr))

where each generator ``gi`` carries a monic defining polynomial ``pi`` of
degree >= 2 whose lower coefficients involve only earlier generators.
The monomials whose every generator exponent stays strictly below its degree
form a basis, and an element is stored in one form: the integer numerators of
its basis coordinates over one positive denominator, in lowest terms.
Products come from the tower's integer multiplication table
(``IntegerStructure``), built the first time the tower multiplies; building
and printing elements need only the degrees.  The tower is not required to
be a field.  Any identity that reduces to zero in the quotient also holds in
the complex numbers after mapping each generator to one of its roots (such a
map always exists, choosing roots innermost-first), which is exactly what
certificate verification needs.

Roots of unity are adjoined through cyclotomic polynomials rather than
``x^m - 1`` so that the power sums ``sum_j z^(j*e)`` collapse to ``m`` or
``0`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from math import gcd, lcm
from operator import add

import numpy as np

from .rationals import Q, as_rational, is_rational


class TowerError(ValueError):
    """Invalid tower construction or mixed-tower arithmetic."""


# ---------------------------------------------------------------------------
# Univariate helpers over Q (dense, ascending coefficients)


def upoly_divexact(num, den):
    """Divide exactly by a monic polynomial; raise if a remainder is left."""
    num = [as_rational(c) for c in num]
    den = [as_rational(c) for c in den]
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    n, m = len(num) - 1, len(den) - 1
    if n < m:
        raise ValueError("degree of numerator below divisor")
    quot = [Q(0)] * (n - m + 1)
    for i in range(n - m, -1, -1):
        c = num[i + m]
        quot[i] = c
        if c != 0:
            for j in range(m + 1):
                num[i + j] -= c * den[j]
    if any(c != 0 for c in num[:m]):
        raise ValueError("division not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """Ascending coefficients of the m-th cyclotomic polynomial.

    Computed by exact division: x^m - 1 divided by the cyclotomic
    polynomials of all proper divisors of m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (Q(-1), Q(1))
    num = [Q(-1)] + [Q(0)] * (m - 1) + [Q(1)]
    for d in range(1, m):
        if m % d == 0:
            num = upoly_divexact(num, cyclotomic_poly(d))
    return tuple(num)


# ---------------------------------------------------------------------------
# Towers


@dataclass(frozen=True)
class Generator:
    """One level of a tower: g satisfies g^degree + sum c_j g^j = 0."""

    name: str
    degree: int
    # c_0 .. c_{degree-1}, each a raw term dict over the preceding sub-tower
    lower_coeffs: tuple

    def key(self):
        return (self.name, self.degree, self.lower_coeffs)


class ExtensionTower:
    """Immutable ordered sequence of monic generators over Q."""

    __slots__ = ("generators", "_degrees", "basis", "_position", "_rewrites", "_integer",
                 "_key")

    def __init__(self, generators=()):
        object.__setattr__(self, "generators", tuple(generators))
        degs = tuple(g.degree for g in self.generators)
        object.__setattr__(self, "_degrees", degs)
        # basis monomials in mixed-radix order, the first generator fastest,
        # so index 0 is 1
        basis = tuple(e[::-1] for e in product(*(range(d) for d in reversed(degs))))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_position", {e: i for i, e in enumerate(basis)})
        object.__setattr__(self, "_rewrites", None)
        object.__setattr__(self, "_integer", None)
        object.__setattr__(self, "_key", tuple(g.key() for g in self.generators))

    # -- construction ------------------------------------------------------

    def extend(self, name: str, defining_poly) -> "ExtensionTower":
        """Adjoin a generator with a monic defining polynomial over self.

        ``defining_poly`` lists ascending coefficients c_0 .. c_d with
        c_d == 1 and d >= 2.  Lower coefficients may be rationals or ring
        elements over this tower.
        """
        coeffs = list(defining_poly)
        if len(coeffs) < 3:
            raise TowerError("defining polynomial must have degree >= 2")
        if any(g.name == name for g in self.generators):
            raise TowerError(f"duplicate generator name {name!r}")
        if self._coerce(coeffs[-1]) != 1:
            raise TowerError("defining polynomial must be monic")
        lower = tuple(tuple(sorted(self._coerce(c).terms.items())) for c in coeffs[:-1])
        gen = Generator(name, len(coeffs) - 1, lower)
        return ExtensionTower(self.generators + (gen,))

    # -- basic queries -----------------------------------------------------

    @property
    def names(self):
        return tuple(g.name for g in self.generators)

    @property
    def degrees(self):
        return self._degrees

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return isinstance(other, ExtensionTower) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if not self.generators:
            return "ExtensionTower(Q)"
        parts = ", ".join(f"{g.name}[{g.degree}]" for g in self.generators)
        return f"ExtensionTower(Q; {parts})"

    # -- element constructors ----------------------------------------------

    def scalar(self, q) -> "RingElement":
        q = as_rational(q)
        return RingElement(self, (q.numerator,) + (0,) * (len(self.basis) - 1), q.denominator)

    def zero(self) -> "RingElement":
        return self.scalar(0)

    def one(self) -> "RingElement":
        return self.scalar(1)

    def generator_element(self, name: str) -> "RingElement":
        if name not in self.names:
            raise TowerError(f"no generator named {name!r}")
        return self.element({tuple(int(g.name == name) for g in self.generators): 1})

    def element(self, terms: dict) -> "RingElement":
        """Build an element from {exponent tuple: int or Q} terms, possibly
        unreduced."""
        position = self._position
        terms = self.normalize(terms)
        den = lcm(*[c.denominator for c in terms.values()])
        numerators = [0] * len(self.basis)
        for e, c in terms.items():
            numerators[position[e]] = c.numerator * (den // c.denominator)
        return RingElement(self, numerators, den)

    def _coerce(self, x) -> "RingElement":
        if isinstance(x, RingElement):
            if x.tower != self:
                raise TowerError("element from a different tower")
            return x
        if is_rational(x):
            return self.scalar(x)
        raise TypeError(f"cannot coerce {x!r} into the tower")

    # -- normal form --------------------------------------------------------

    def _rewrite_tables(self):
        # For generator i: g_i^{d_i} -> sum_j (-c_j) g_i^j, with -c_j given
        # as raw term dicts over the width-i prefix.
        tables = self._rewrites
        if tables is None:
            tables = []
            for g in self.generators:
                rw = []
                for j, frozen in enumerate(g.lower_coeffs):
                    terms = {e: -c for e, c in frozen}
                    if terms:
                        rw.append((j, terms))
                tables.append(rw)
            object.__setattr__(self, "_rewrites", tables)
        return tables

    def normalize(self, raw: dict) -> dict:
        """Reduce every generator exponent below its degree; drop zeros.

        Rewrites at the highest out-of-range generator first; each rewrite
        strictly decreases the exponent tuple in the lexicographic order
        that weighs later generators more, so the loop terminates.
        """
        degs = self._degrees
        if not degs:
            c = raw.get((), 0)
            return {} if c == 0 else {(): c}
        out: dict = {}
        work = []
        for e, c in raw.items():
            if c == 0:
                continue
            if all(e[i] < degs[i] for i in range(len(degs))):
                prev = out.get(e)
                out[e] = c if prev is None else prev + c
            else:
                work.append((e, c))
        tables = self._rewrite_tables()
        while work:
            e, c = work.pop()
            i = max(t for t in range(len(degs)) if e[t] >= degs[t])
            base = e[i] - degs[i]
            for j, terms in tables[i]:
                for pe, pc in terms.items():
                    ne = list(e)
                    ne[i] = base + j
                    for g in range(len(pe)):
                        ne[g] += pe[g]
                    ne_t = tuple(ne)
                    nc = c * pc
                    if all(ne_t[t] < degs[t] for t in range(i + 1)):
                        prev = out.get(ne_t)
                        out[ne_t] = nc if prev is None else prev + nc
                    else:
                        work.append((ne_t, nc))
        return {e: c for e, c in out.items() if c != 0}

    def integer_structure(self) -> "IntegerStructure":
        """The multiplication table of this tower, built once per tower
        instance, the first time the tower multiplies or is verified."""
        structure = self._integer
        if structure is None:
            structure = IntegerStructure(self)
            object.__setattr__(self, "_integer", structure)
        return structure

    # -- numeric embedding ---------------------------------------------------

    def complex_roots(self, rng=None) -> tuple:
        """Choose one complex root per generator, innermost-first.

        Deterministic without an rng (largest root by (real, imag)); with an
        rng, one root is picked uniformly per level.
        """
        roots: list = []
        for g in self.generators:
            # coefficients of the defining polynomial at the chosen roots
            coeffs = [_evaluate(frozen, roots) for frozen in g.lower_coeffs]
            coeffs.append(1.0 + 0j)  # monic leading coefficient
            rts = np.roots(list(reversed(coeffs)))
            rts = sorted(rts, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
            if rng is None:
                roots.append(complex(rts[-1]))
            else:
                roots.append(complex(rts[int(rng.integers(len(rts)))]))
        return tuple(roots)


def _evaluate(terms, roots) -> complex:
    """Numeric value of (exponents, rational) terms, generator i mapped to roots[i]."""
    total = 0j
    for e, c in terms:
        t = complex(c.numerator) / complex(c.denominator)
        for i in range(len(e)):
            if e[i]:
                t *= roots[i] ** e[i]
        total += t
    return total


class IntegerStructure:
    """The integer multiplication table of one tower.

    Vectors are dense sequences of ``size`` ints, one per basis monomial of
    the tower (``ExtensionTower.basis``), the numerators of a ``RingElement``
    or the cleared values that the expansion kernels carry.  Basis products
    come from an integer structure table

        b_i * b_j = (1/L) * sum_k T_ijk * b_k

    with integer T and L the least common multiple of the denominators of
    the tower's structure constants (1 for cyclotomic towers), so
    ``mul(x, y)`` returns L*x*y and a product of r factors carries L^(r-1).
    The whole table, L and the table's norms are built when the structure is
    made, the first time the tower multiplies: a pair whose product is itself
    a basis monomial is the single entry L, and every other pair takes one
    normal form.  The empty tower Q is the size-1 case: L = 1 and a vector
    is ``[n]``.
    """

    def __init__(self, tower: ExtensionTower):
        basis, position = tower.basis, tower._position
        self.tower = tower
        self.size = n = len(basis)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        products = []
        for i, j in pairs:
            e = tuple(map(add, basis[i], basis[j]))
            products.append({e: 1} if e in position else tower.normalize({e: Q(1)}))
        self.denominator = big = lcm(*(c.denominator for p in products for c in p.values()))
        rows, rho, cols = {}, 0, [0] * n
        for (i, j), p in zip(pairs, products):
            row = rows[i, j] = rows[j, i] = tuple(
                (position[f], c.numerator * (big // c.denominator)) for f, c in p.items())
            rho = max(rho, sum(abs(t) for _, t in row))
            for k, t in row:
                cols[k] += abs(t) if i == j else 2 * abs(t)
        self._rows = [rows[i, j] for i in range(n) for j in range(n)]
        # rho = max over basis pairs (i, j) of sum_k |T_ijk|, so that
        # |mul(x, y)|_1 <= rho * |x|_1 * |y|_1 in the 1-norm
        self.row_norm = rho
        # c = max over k of sum_ij |T_ijk|: an output coefficient of the table
        # product is at most c times the largest product of two input
        # coefficients
        self.column_norm = max(cols)
        self.zero = [0] * n
        self.one = [1] + [0] * (n - 1)

    @staticmethod
    def clear(elements):
        """Clear denominators: (values, D) with element_i == values_i / D and
        D the lcm of the elements' denominators.  A returned vector may be an
        element's own numerator tuple."""
        den = lcm(*[el.denominator for el in elements])
        return [el.numerators if el.denominator == den
                else [a * (den // el.denominator) for a in el.numerators]
                for el in elements], den

    @cached_property
    def table(self) -> np.ndarray:
        """The full table T as int64 of shape (size * size, size), row
        i * size + j holding T_ij.  Every entry is at most ``column_norm``,
        which the caller must check fits int64."""
        n = self.size
        table = np.zeros((n * n, n), dtype=np.int64)
        for ij, row in enumerate(self._rows):
            for k, t in row:
                table[ij, k] = t
        return table

    def mul(self, x, y):
        n, rows = self.size, self._rows
        if n == 1:  # Q, where L = 1
            return [x[0] * y[0]]
        out = [0] * n
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                base = i * n
                for j, b in ys:
                    ab = a * b
                    for k, t in rows[base + j]:
                        out[k] += ab * t
        return out

    @staticmethod
    def add(x, y):
        return [a + b for a, b in zip(x, y)]

    @staticmethod
    def scale(x, c: int):
        return [c * a for a in x]

    def product(self, factors):
        return reduce(self.mul, factors)


EMPTY_TOWER = ExtensionTower()


def roots_of_unity_tower(ms) -> ExtensionTower:
    """Tower holding a primitive m-th root of unity for each m >= 3 in ms."""
    tower = EMPTY_TOWER
    for m in sorted({int(m) for m in ms if int(m) >= 3}):
        tower = tower.extend(f"z{m}", cyclotomic_poly(m))
    return tower


def unity_root(tower: ExtensionTower, m: int) -> "RingElement":
    """The chosen primitive m-th root of unity as a tower element."""
    if m == 1:
        return tower.one()
    if m == 2:
        return tower.scalar(-1)
    return tower.generator_element(f"z{m}")


# ---------------------------------------------------------------------------
# Ring elements


class RingElement:
    """Element of an extension tower: the integer numerators of its
    coordinates over the tower's basis monomials and one positive
    denominator, in lowest terms.  Treated as immutable."""

    __slots__ = ("tower", "numerators", "denominator")

    def __init__(self, tower: ExtensionTower, numerators, denominator: int = 1):
        g = gcd(denominator, *numerators)
        if g != 1:
            numerators = [a // g for a in numerators]
            denominator //= g
        self.tower = tower
        self.numerators = tuple(numerators)
        self.denominator = denominator

    # -- queries -------------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponents: rational} over the nonzero coordinates, derived anew
        on each read."""
        basis, den = self.tower.basis, self.denominator
        return {basis[i]: Q(a, den) for i, a in enumerate(self.numerators) if a}

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def __bool__(self):
        return any(self.numerators)

    def is_rational(self) -> bool:
        return not any(self.numerators[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Q(self.numerators[0], self.denominator)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.tower != self.tower:
                raise TowerError("mixed towers in ring arithmetic")
            return other
        if is_rational(other):
            return self.tower.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self.denominator, o.denominator)
        a, b = den // self.denominator, den // o.denominator
        return RingElement(self.tower,
                           [a * x + b * y for x, y in zip(self.numerators, o.numerators)], den)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.tower, [-a for a in self.numerators], self.denominator)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.tower.integer_structure()
        return RingElement(self.tower, ring.mul(self.numerators, o.numerators),
                           ring.denominator * self.denominator * o.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, RingElement) and other.tower != self.tower:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.numerators == o.numerators and self.denominator == o.denominator

    def __hash__(self):
        # a rational element equals its rational value, so it hashes as one
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.numerators, self.denominator))

    # -- output ------------------------------------------------------------

    def text(self) -> str:
        """Canonical text: terms ascending by exponent tuple, every generator
        printed with an explicit exponent, e.g. ``(1/6)*u^1*z3^0``."""
        basis, den = self.tower.basis, self.denominator
        terms = []
        for i, a in enumerate(self.numerators):
            if a:
                g = gcd(a, den)
                terms.append((basis[i], a // g, den // g))
        terms.sort()
        return terms_text(self.tower.names, terms)

    def __repr__(self):
        return f"RingElement({self.text()})"

    def evaluate(self, roots) -> complex:
        """Numeric value with each generator mapped to the given root."""
        return _evaluate(self.terms.items(), roots)


def terms_text(names, terms) -> str:
    """Canonical text of (exponents, numerator, denominator) terms over the
    generators ``names``: sorted by exponents, each coefficient in lowest
    terms with a positive denominator, ``0`` when there are none."""
    if not terms:
        return "0"
    parts = []
    for exps, n, d in terms:
        piece = f"({n})" if d == 1 else f"({n}/{d})"
        for name, e in zip(names, exps):
            piece += f"*{name}^{e}"
        parts.append(piece)
    return " + ".join(parts)

"""Exact arithmetic over towers of monic algebraic extensions of the rationals.

The coefficient domain for everything exact in this package is a quotient ring

    Q[g1, ..., gr] / (p1(g1), p2(g1, g2), ..., pr(g1, ..., gr))

where each generator ``gi`` carries a monic defining polynomial ``pi`` of
degree >= 2 whose lower coefficients are elements of the preceding subtower
(the tower of g1, ..., g(i-1)).
The monomials whose every generator exponent stays strictly below its degree
form a basis, and an element is stored in one form: the integer numerators of
its basis coordinates over one positive denominator, in lowest terms.
Products come from the tower's integer multiplication table
(``IntegerStructure``), built row by row from the generators' defining
polynomials the first time the tower multiplies.  The table is the tower's
one reduction: ``normalize`` multiplies through it too.  Building and
printing elements need only the degrees.  The tower is not required to
be a field.  Any identity that reduces to zero in the quotient also holds in
the complex numbers after mapping each generator to one of its roots (such a
map always exists, choosing roots innermost-first), which is exactly what
certificate verification needs.

Roots of unity are adjoined through cyclotomic polynomials rather than
``x^m - 1`` so that the power sums ``sum_j z^(j*e)`` collapse to ``m`` or
``0`` exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from math import gcd, lcm, prod

import numpy as np

from .rationals import Q, as_rational, is_rational

# the names of generators and of certificate variables
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    # c_0 .. c_{degree-1}, each a RingElement of the preceding sub-tower
    lower_coeffs: tuple


class ExtensionTower:
    """Immutable ordered sequence of monic generators over Q."""

    __slots__ = ("generators", "_degrees", "basis", "_position", "_integer")

    def __init__(self, generators=()):
        self.generators = tuple(generators)
        self._degrees = degs = tuple(g.degree for g in self.generators)
        # basis monomials in mixed-radix order, the first generator fastest,
        # so index 0 is 1
        self.basis = tuple(e[::-1] for e in product(*(range(d) for d in reversed(degs))))
        self._position = {e: i for i, e in enumerate(self.basis)}
        self._integer = None

    # -- construction ------------------------------------------------------

    def extend(self, name: str, defining_poly) -> "ExtensionTower":
        """Adjoin a generator with a monic defining polynomial over self.

        ``defining_poly`` lists ascending coefficients c_0 .. c_d with
        c_d == 1 and d >= 2.  Lower coefficients may be rationals or ring
        elements over this tower.
        """
        coeffs = list(defining_poly)
        if not NAME_RE.fullmatch(name):
            raise TowerError(f"bad generator name {name!r}")
        if len(coeffs) < 3:
            raise TowerError("defining polynomial must have degree >= 2")
        if any(g.name == name for g in self.generators):
            raise TowerError(f"duplicate generator name {name!r}")
        if self._coerce(coeffs[-1]) != 1:
            raise TowerError("defining polynomial must be monic")
        gen = Generator(name, len(coeffs) - 1, tuple(map(self._coerce, coeffs[:-1])))
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
        return isinstance(other, ExtensionTower) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

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
        terms = self.normalize(terms)
        den = lcm(*[c.denominator for c in terms.values()])
        numerators = [0] * len(self.basis)
        for e, c in terms.items():
            numerators[self._position[e]] = c.numerator * (den // c.denominator)
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

    def normalize(self, raw: dict) -> dict:
        """Reduce every generator exponent below its degree; drop zeros.

        A monomial whose exponents are all in range is its own normal form.
        Any other is split into in-range chunks, whose product the tower's
        table reduces, carrying L per product.
        """
        degs, pieces = self._degrees, []
        for e, c in raw.items():
            if all(a < d for a, d in zip(e, degs)):
                pieces.append((c, {e: 1}))
                continue
            ring, units = self.integer_structure(), []
            while any(e):
                chunk = tuple(min(a, d - 1) for a, d in zip(e, degs))
                e = tuple(a - b for a, b in zip(e, chunk))
                units.append([int(f == chunk) for f in self.basis])
            c *= Q(1, ring.denominator ** (len(units) - 1))
            pieces.append((c, dict(zip(self.basis, ring.product(units)))))
        return _combine(pieces)

    def integer_structure(self) -> "IntegerStructure":
        """The multiplication table of this tower, built once per tower
        instance, the first time the tower multiplies or is verified."""
        if self._integer is None:
            self._integer = IntegerStructure(self)
        return self._integer

    # -- numeric embedding ---------------------------------------------------

    def complex_roots(self, rng=None) -> tuple:
        """Choose one complex root per generator, innermost-first.

        Deterministic without an rng (largest root by (real, imag)); with an
        rng, one root is picked uniformly per level.
        """
        roots: list = []
        for g in self.generators:
            # coefficients of the defining polynomial at the chosen roots
            coeffs = [c.evaluate(roots) for c in g.lower_coeffs]
            coeffs.append(1.0 + 0j)  # monic leading coefficient
            rts = np.roots(list(reversed(coeffs)))
            rts = sorted(rts, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
            if rng is None:
                roots.append(complex(rts[-1]))
            else:
                roots.append(complex(rts[int(rng.integers(len(rts)))]))
        return tuple(roots)


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
    made, the first time the tower multiplies, row by row in basis order from
    the generators' defining polynomials (``_basis_products``).  The empty
    tower Q is the size-1 case: L = 1 and a vector is ``[n]``.
    """

    def __init__(self, tower: ExtensionTower):
        self.tower = tower
        self.size = n = len(tower.basis)
        products = _basis_products(tower)
        self.denominator = big = lcm(*(c.denominator for row in products
                                       for p in row for c in p.values()))
        self._rows = rows = [tuple((k, c.numerator * (big // c.denominator)) for k, c in p.items())
                             for row in products for p in row]
        # rho = max over basis pairs (i, j) of sum_k |T_ijk|, so that
        # |mul(x, y)|_1 <= rho * |x|_1 * |y|_1 in the 1-norm
        self.row_norm = max(sum(abs(t) for _, t in row) for row in rows)
        # c = max over k of sum_ij |T_ijk|: an output coefficient of the table
        # product is at most c times the largest product of two input
        # coefficients
        cols = [0] * n
        for row in rows:
            for k, t in row:
                cols[k] += abs(t)
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


def _basis_products(tower: ExtensionTower) -> list:
    """rows[i][j] = the normal form of b_i * b_j as {basis index: rational}.

    Generator g's exponent steps the basis index by s_g, the product of the
    degrees before g.  Row 0 is the identity.  For i > 0 whose first
    generator is g: if i != s_g, row i is row i - s_g multiplied through row
    s_g.  Row s_g shifts b_j by s_g until g's exponent reaches its degree d,
    and past that uses g^d = -sum_m c_m g^m, whose coefficients c_m index
    rows below s_g.  Row i takes its columns below i from the rows before it
    (b_i * b_j = b_j * b_i) and reads no row after it.  Coefficients stay
    ints while the tower's are integers.
    """
    basis, n, degs = tower.basis, len(tower.basis), tower.degrees
    rows = [[{j: 1} for j in range(n)]]
    for i in range(1, n):
        g = next(t for t, a in enumerate(basis[i]) if a)
        s, d = prod(degs[:g]), degs[g]
        row = [rows[j][i] for j in range(i)]
        if i != s:
            prev, times_g = rows[i - s], rows[s]
            row += [_combine((c, times_g[l]) for l, c in prev[j].items()) for j in range(i, n)]
        else:
            relation = [(m, (e + 1 - d) * s, -a if c.denominator == 1 else Q(-a, c.denominator))
                        for e, c in enumerate(tower.generators[g].lower_coeffs)
                        for m, a in enumerate(c.numerators) if a]
            row += [{j + s: 1} if basis[j][g] < d - 1
                    else _combine((q, rows[m][j + shift]) for m, shift, q in relation)
                    for j in range(i, n)]
        rows.append(row)
    return rows


def _combine(pairs) -> dict:
    """The sparse vector sum of c * v over (scalar c, sparse vector v)."""
    out: dict = {}
    for c, vec in pairs:
        for k, v in vec.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def binary_power(base, n: int):
    """base ** n for n >= 1: no multiply by one, no square past the last bit."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


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
        return binary_power(self, n) if n else self.tower.one()

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
        """Canonical text: terms ascending by exponent tuple, each coefficient
        in lowest terms with a positive denominator and every generator
        printed with an explicit exponent, e.g. ``(1/6)*u^1*z3^0``; ``0`` when
        there are no terms."""
        names, den = self.tower.names, self.denominator
        parts = []
        for exps, a in sorted((e, a) for e, a in zip(self.tower.basis, self.numerators) if a):
            g = gcd(a, den)
            piece = f"({a // g})" if g == den else f"({a // g}/{den // g})"
            parts.append(piece + "".join(f"*{name}^{e}" for name, e in zip(names, exps)))
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"RingElement({self.text()})"

    def evaluate(self, roots) -> complex:
        """Numeric value with generator i mapped to roots[i]."""
        total = 0j
        for exps, a in zip(self.tower.basis, self.numerators):
            if a:
                t = complex(a / self.denominator)
                for i, e in enumerate(exps):
                    if e:
                        t *= roots[i] ** e
                total += t
        return total

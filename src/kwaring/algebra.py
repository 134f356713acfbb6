"""Exact arithmetic over towers of monic algebraic extensions of the rationals.

The coefficient domain for everything exact in this package is a quotient ring

    Q[g1, ..., gr] / (p1(g1), p2(g1, g2), ..., pr(g1, ..., gr))

where each generator ``gi`` carries a monic defining polynomial ``pi`` of
degree >= 2 whose lower coefficients involve only earlier generators.
Elements are kept in normal form: every generator exponent stays strictly
below the degree of its defining polynomial, and zero coefficients are never
stored.  The tower is not required to be a field.  Any identity that reduces
to zero in the quotient also holds in the complex numbers after mapping each
generator to one of its roots (such a map always exists, choosing roots
innermost-first), which is exactly what certificate verification needs.

Roots of unity are adjoined through cyclotomic polynomials rather than
``x^m - 1`` so that the power sums ``sum_j z^(j*e)`` collapse to ``m`` or
``0`` exactly in normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import lcm, prod

import numpy as np

from .rationals import Q, as_rational, is_rational, rational_text


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


def _freeze_terms(terms: dict) -> tuple:
    return tuple(sorted(terms.items()))


class ExtensionTower:
    """Immutable ordered sequence of monic generators over Q."""

    __slots__ = ("generators", "_degrees", "_rewrites", "_integer", "_key")

    def __init__(self, generators=()):
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "_degrees", tuple(g.degree for g in self.generators))
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
        lead = coeffs[-1]
        lead_el = self._coerce(lead)
        if lead_el.terms != {self._zero_key(): Q(1)}:
            raise TowerError("defining polynomial must be monic")
        lower = tuple(_freeze_terms(self._coerce(c).terms) for c in coeffs[:-1])
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

    def _zero_key(self):
        return (0,) * len(self.generators)

    # -- element constructors ----------------------------------------------

    def scalar(self, q) -> "RingElement":
        q = as_rational(q)
        terms = {} if q == 0 else {self._zero_key(): q}
        return RingElement(self, terms)

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.scalar(1)

    def generator_element(self, name: str) -> "RingElement":
        for i, g in enumerate(self.generators):
            if g.name == name:
                e = [0] * len(self.generators)
                e[i] = 1
                return RingElement(self, {tuple(e): Q(1)})
        raise TowerError(f"no generator named {name!r}")

    def element(self, raw_terms: dict) -> "RingElement":
        """Build an element from possibly unreduced terms."""
        clean = {tuple(e): as_rational(c) for e, c in raw_terms.items()}
        return RingElement(self, self.normalize(clean))

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
        """Integer arithmetic on this tower, built once per tower instance."""
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


def _denominator_bound(tower: ExtensionTower) -> int:
    """A common denominator L for every product of two basis monomials.

    Built generator by generator.  Let g have degree d, let D be the least
    common denominator of its defining coefficients and L' the bound of the
    prefix tower.  A basis product is (P1 * P2) * g^m with prefix monomials
    P1, P2 and m <= 2d - 2, and reducing g^m takes at most d - 1 rewrites.
    With rational coefficients the rewrites multiply rationals only, so
    L = L' * D^(d-1).  With coefficients over the prefix, every rewrite
    after the first multiplies two prefix elements (a factor L' each), and
    so do P1 * P2 and the final product, so L = L'^d * D^(d-1).  Table rows
    check that their denominators divide L.
    """
    bound = 1
    for g in tower.generators:
        terms = [t for frozen in g.lower_coeffs for t in frozen]
        den = lcm(*(int(c.denominator) for _, c in terms))
        if any(any(e) for e, _ in terms):
            bound = bound ** g.degree * den ** (g.degree - 1)
        else:
            bound = bound * den ** (g.degree - 1)
    return bound


class IntegerStructure:
    """Exact integer arithmetic on one tower, for expansion kernels.

    An element is carried as integers over a denominator the caller keeps:
    a dense list of ``size`` ints, one per basis monomial (exponents below
    the degrees, mixed-radix index with the first generator fastest, so
    index 0 is 1).  Basis products come from an integer structure table

        b_i * b_j = (1/L) * sum_k T_ijk * b_k

    with integer T and one common denominator L for the tower (1 for
    cyclotomic towers), so ``mul(x, y)`` returns L*x*y and a product of r
    factors carries L^(r-1).  Table rows are filled lazily, only for the
    pairs that occur; ``row_norm``, ``column_norm`` and ``table`` fill all
    of them.  The empty tower Q is the size-1 case: L = 1 and an element is
    ``[n]``.
    """

    def __init__(self, tower: ExtensionTower):
        degs = tower.degrees
        self.tower = tower
        self.size = prod(degs)
        self.denominator = _denominator_bound(tower)
        strides, step = [], 1
        for d in degs:
            strides.append(step)
            step *= d
        self._basis = [
            tuple((i // s) % d for s, d in zip(strides, degs)) for i in range(self.size)
        ]
        self._position = {b: i for i, b in enumerate(self._basis)}
        self._rows = [None] * (self.size * self.size)
        self.zero = [0] * self.size
        self.one = [1] + [0] * (self.size - 1)

    def clear(self, elements, known=None):
        """Clear denominators: (values, D) with element_i == values_i / D and
        D the least common denominator of all coefficients.

        ``known`` maps id(element) to that element's own cleared vector and
        denominator: an element found there is not cleared again, and one
        that is not is added.  Returned vectors may be shared with it.
        """
        if known is None:
            known = {}
        own = []
        for el in elements:
            hit = known.get(id(el))
            if hit is None:
                den = lcm(*(c.denominator for c in el.terms.values()))
                v = [0] * self.size
                for e, c in el.terms.items():
                    v[self._position[e]] = c.numerator * (den // c.denominator)
                hit = known[id(el)] = (v, den)
            own.append(hit)
        den = lcm(*{d for _, d in own})
        return [v if d == den else [a * (den // d) for a in v] for v, d in own], den

    def _row(self, i: int, j: int) -> tuple:
        n, big = self.size, self.denominator
        e = tuple(a + b for a, b in zip(self._basis[i], self._basis[j]))
        if all(a < d for a, d in zip(e, self.tower.degrees)):
            row = ((self._position[e], big),)
        else:
            row = []
            for f, c in self.tower.normalize({e: Q(1)}).items():
                num, den = int(c.numerator), int(c.denominator)
                if big % den:
                    raise ArithmeticError("structure constant outside the denominator bound")
                row.append((self._position[f], num * (big // den)))
            row = tuple(row)
        self._rows[i * n + j] = self._rows[j * n + i] = row
        return row

    def _full_rows(self) -> list:
        n = self.size
        for i in range(n):
            for j in range(i, n):
                if self._rows[i * n + j] is None:
                    self._row(i, j)
        return self._rows

    @cached_property
    def row_norm(self) -> int:
        """rho = max over basis pairs (i, j) of sum_k |T_ijk|, so that
        ``|mul(x, y)|_1 <= rho * |x|_1 * |y|_1`` in the 1-norm."""
        return max(sum(abs(t) for _, t in row) for row in self._full_rows())

    @cached_property
    def column_norm(self) -> int:
        """c = max over k of sum_ij |T_ijk|: an output coefficient of the
        table product is at most c times the largest product of two input
        coefficients."""
        cols = [0] * self.size
        for row in self._full_rows():
            for k, t in row:
                cols[k] += abs(t)
        return max(cols)

    @cached_property
    def table(self) -> np.ndarray:
        """The full table T as int64 of shape (size * size, size), row
        i * size + j holding T_ij.  Every entry is at most ``column_norm``,
        which the caller must check fits int64."""
        n = self.size
        table = np.zeros((n * n, n), dtype=np.int64)
        for ij, row in enumerate(self._full_rows()):
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
                    row = rows[base + j]
                    if row is None:
                        row = self._row(i, j)
                    ab = a * b
                    for k, t in row:
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
    """Normal-form element of an extension tower.  Treated as immutable."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower: ExtensionTower, terms: dict):
        self.tower = tower
        self.terms = terms

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self) -> bool:
        if not self.terms:
            return True
        if len(self.terms) != 1:
            return False
        return self.tower._zero_key() in self.terms

    def rational_value(self):
        if not self.terms:
            return Q(0)
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.terms[self.tower._zero_key()]

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
        out = dict(self.terms)
        for e, c in o.terms.items():
            prev = out.get(e)
            s = c if prev is None else prev + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return RingElement(self.tower, out)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.tower, {e: -c for e, c in self.terms.items()})

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
        t1, t2 = self.terms, o.terms
        if not t1 or not t2:
            return self.tower.zero()
        if len(t1) == 1 and len(t2) == 1:
            # products of in-range single terms are already in normal form
            (e1, c1), = t1.items()
            (e2, c2), = t2.items()
            e = tuple(a + b for a, b in zip(e1, e2))
            degs = self.tower._degrees
            if all(e[i] < degs[i] for i in range(len(degs))):
                return RingElement(self.tower, {e: c1 * c2})
            return RingElement(self.tower, self.tower.normalize({e: c1 * c2}))
        raw: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                prev = raw.get(e)
                raw[e] = c if prev is None else prev + c
        return RingElement(self.tower, self.tower.normalize(raw))

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.tower, _freeze_terms(self.terms)))

    # -- output ------------------------------------------------------------

    def text(self) -> str:
        """Canonical text: terms ascending by exponent tuple, every generator
        printed with an explicit exponent, e.g. ``(1/6)*u^1*z3^0``."""
        if not self.terms:
            return "0"
        names = self.tower.names
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            piece = f"({rational_text(c)})"
            for name, exp in zip(names, e):
                piece += f"*{name}^{exp}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self):
        return f"RingElement({self.text()})"

    def evaluate(self, roots) -> complex:
        """Numeric value with each generator mapped to the given root."""
        return _evaluate(self.terms.items(), roots)

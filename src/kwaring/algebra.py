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
one reduction: ``normalize`` multiplies through it too.  ``extend`` interns
towers (the most recently used ``TOWER_CACHE_SIZE`` are kept), so every
element over an equal chain of generators shares one tower object, one
table and one ``TermVocabulary``, the canonical text of each basis
monomial's factors that printing and parsing read.  Building and printing
elements need no table.  Each table also keeps the tower's split primes,
where the tower mod p is a product of copies of F_p, with their evaluation
matrices, for ``verify``'s modular kernel.  The tower is not required to be
a field.  Any identity that reduces to zero in the quotient also holds in
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
from functools import lru_cache, reduce
from itertools import product
from math import gcd, lcm, prod
from typing import NamedTuple

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


class TermVocabulary(NamedTuple):
    """The canonical text of a tower's basis monomials, as ring element text
    writes them after a term's coefficient."""

    # (basis index, suffix such as ``*u^1*v^0``) ascending by exponent tuple
    order: tuple
    # suffix -> (basis index, rank in ``order``)
    lookup: dict


class ExtensionTower:
    """Immutable ordered sequence of monic generators over Q."""

    __slots__ = ("generators", "_hash", "_degrees", "basis", "_position", "_integer",
                 "_vocabulary", "_one")

    def __init__(self, generators=()):
        self.generators = tuple(generators)
        self._hash = hash(self.generators)
        self._degrees = degs = tuple(g.degree for g in self.generators)
        # basis monomials in mixed-radix order, the first generator fastest,
        # so index 0 is 1
        self.basis = tuple(e[::-1] for e in product(*(range(d) for d in reversed(degs))))
        self._position = {e: i for i, e in enumerate(self.basis)}
        self._integer = self._vocabulary = None
        self._one = (1,) + (0,) * (len(self.basis) - 1)  # the numerators of 1

    # -- construction ------------------------------------------------------

    def extend(self, name: str, defining_poly) -> "ExtensionTower":
        """Adjoin a generator with a monic defining polynomial over self.

        ``defining_poly`` lists ascending coefficients c_0 .. c_d with
        c_d == 1 and d >= 2.  Lower coefficients may be rationals or ring
        elements over this tower.  An equal chain of generators returns the
        same tower object while it stays among the ``TOWER_CACHE_SIZE``
        most recently used.
        """
        coeffs = list(defining_poly)
        if not NAME_RE.fullmatch(name):
            raise TowerError(f"bad generator name {name!r}")
        if len(coeffs) < 3:
            raise TowerError("defining polynomial must have degree >= 2")
        if any(g.name == name for g in self.generators):
            raise TowerError(f"duplicate generator name {name!r}")
        lead = self._coerce(coeffs[-1])
        if lead.denominator != 1 or lead.numerators != self._one:
            raise TowerError("defining polynomial must be monic")
        # the interned tower is found by the coefficients' numerators and
        # denominators; a Generator is built only for a new tower
        return _interned(self, name, tuple((c.numerators, c.denominator)
                                           for c in map(self._coerce, coeffs[:-1])))

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
        return self is other or (isinstance(other, ExtensionTower)
                                 and self.generators == other.generators)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.generators:
            return "ExtensionTower(Q)"
        parts = ", ".join(f"{g.name}[{g.degree}]" for g in self.generators)
        return f"ExtensionTower(Q; {parts})"

    # -- element constructors ----------------------------------------------

    def scalar(self, q) -> "RingElement":
        if not is_rational(q):
            raise TypeError(f"not a rational scalar: {q!r}")
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
            pieces.append((c, dict(zip(self.basis, reduce(ring.mul, units)))))
        return _combine(pieces)

    def integer_structure(self) -> "IntegerStructure":
        """The multiplication table of this tower, built the first time the
        tower multiplies or is verified.  Towers are interned, so that is
        once per distinct tower while it stays cached."""
        if self._integer is None:
            self._integer = IntegerStructure(self)
        return self._integer

    def vocabulary(self) -> TermVocabulary:
        """The canonical text of every basis monomial, built the first time
        an element of this tower is printed or parsed."""
        if self._vocabulary is None:
            order = sorted(range(len(self.basis)), key=self.basis.__getitem__)
            suffixes = ["".join(f"*{name}^{e}" for name, e in zip(self.names, self.basis[i]))
                        for i in order]
            self._vocabulary = TermVocabulary(
                tuple(zip(order, suffixes)),
                {suffix: (i, rank) for rank, (i, suffix) in enumerate(zip(order, suffixes))})
        return self._vocabulary

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
    """The integer multiplication table of one tower, and its split primes.

    Vectors are dense sequences of ``size`` ints, one per basis monomial of
    the tower (``ExtensionTower.basis``), the numerators of a ``RingElement``
    or the cleared values that the verify kernel carries.  Basis products
    come from an integer structure table

        b_i * b_j = (1/L) * sum_k T_ijk * b_k

    with integer T and L the least common multiple of the denominators of
    the tower's structure constants (1 for cyclotomic towers), so
    ``mul(x, y)`` returns L*x*y and a product of r factors carries L^(r-1).
    The whole table, L and its row norm are built when the structure is
    made, the first time the tower multiplies, row by row in basis order from
    the generators' defining polynomials (``_basis_products``); towers are
    interned, so that is once per distinct tower.  The empty tower Q is the
    size-1 case: L = 1 and a vector is ``[n]``.

    ``split_primes`` lists, and keeps, the primes p below ``PRIME_LIMIT`` at
    which the tower splits: p divides neither L nor a denominator of a
    generator coefficient, and at every tuple of roots mod p of the levels
    below, each level's defining polynomial has ``degree`` distinct roots
    mod p.  The n root tuples then make evaluation a ring isomorphism from
    (Z/p)[tower] to F_p^n (the Chinese remainder theorem, level by level),
    given by the (n, n) evaluation matrix that each split prime comes with.
    ``split_primes_above`` keeps the fewest that ``verify`` needs, with their
    matrices stacked, so they live as long as the structure and its tower.
    """

    def __init__(self, tower: ExtensionTower):
        self.tower = tower
        self.size = len(tower.basis)
        products = _basis_products(tower)
        self.denominator = big = lcm(*(c.denominator for row in products
                                       for p in row for c in p.values()))
        self._rows = rows = [tuple((k, c.numerator * (big // c.denominator)) for k, c in p.items())
                             for row in products for p in row]
        # rho = max over basis pairs (i, j) of sum_k |T_ijk|, so that
        # |mul(x, y)|_1 <= rho * |x|_1 * |y|_1 in the 1-norm
        self.row_norm = max(sum(abs(t) for _, t in row) for row in rows)
        # every denominator that a split prime must not divide
        self._denominators = big * prod(c.denominator for g in tower.generators
                                        for c in g.lower_coeffs)
        self._split: list = []  # (p, evaluation matrix) per split prime found
        self._arrays: dict = {}  # prime count -> split_primes_above's arrays
        self._tried = 0  # candidate primes examined
        self._orders = [_unity_order(g) for g in tower.generators]  # m per level Phi_m, or None

    @staticmethod
    def clear(elements):
        """Clear denominators: (values, D) with element_i == values_i / D and
        D the lcm of the elements' denominators.  A returned vector may be an
        element's own numerator tuple."""
        den = lcm(*[el.denominator for el in elements])
        return [el.numerators if el.denominator == den
                else [a * (den // el.denominator) for a in el.numerators]
                for el in elements], den

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

    def split_primes(self, count: int):
        """The ``count`` largest split primes of the tower, each with its
        evaluation matrix mod p as int64, row r holding every basis monomial
        at the r-th root tuple; None when the ``SPLIT_SEARCH`` largest primes
        hold fewer.  The primes found so far are kept, and the search goes on
        from the last one tried.  It ends at the first prime where a level
        has a repeated root mod p, gcd(f, f') != 1, as u^2 - 2u + 1 has at
        every prime; a separable tower has one only at primes dividing a
        discriminant of a level, and a wrong stop there only sends its
        certificates to ``verify``'s exact fallback."""
        while len(self._split) < count:
            if self._tried == SPLIT_SEARCH:
                return None
            p = _prime(self._tried)
            self._tried += 1
            try:
                points = (None if self._denominators % p == 0
                          else _root_tuples(self.tower, self._orders, p))
            except _RepeatedRoot:
                self._tried = SPLIT_SEARCH
                return None
            if points is not None:
                degrees, basis = self.tower.degrees, self.tower.basis
                matrix = []
                for roots in points:
                    powers = [[pow(r, e, p) for e in range(d)] for r, d in zip(roots, degrees)]
                    matrix.append([prod(pw[e] for pw, e in zip(powers, exps)) % p
                                   for exps in basis])
                self._split.append((p, np.array(matrix, dtype=np.int64)))
        return self._split[:count]

    def split_primes_above(self, height: int):
        """The fewest of the tower's largest split primes whose product
        exceeds height, as (primes, moduli of shape (primes, 1), transposed
        evaluation matrices stacked, or None over Q), kept per prime count;
        None when the tower has too few."""
        count = max(1, -(-height.bit_length() // 26))
        while (split := self.split_primes(count)) is not None:
            primes = tuple(p for p, _ in split)
            if prod(primes) > height:
                if count not in self._arrays:
                    self._arrays[count] = (
                        primes, np.array(primes, dtype=np.int64).reshape(count, 1),
                        None if self.size == 1 else np.stack([m.T for _, m in split]))
                return self._arrays[count]
            count += 1
        return None


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


# ---------------------------------------------------------------------------
# Split primes: roots of the defining polynomials mod p, on Python ints

# Every prime used modulo is below this, so that residues fit 26 bits.
PRIME_LIMIT = 1 << 26
# The candidate primes, the largest below PRIME_LIMIT, that a tower's search
# for split primes tries before it gives up on the tower.
SPLIT_SEARCH = 4096
_PRIMES: list = []  # the largest primes below PRIME_LIMIT found so far, descending


def _prime(i: int) -> int:
    """The (i + 1)-th largest prime below ``PRIME_LIMIT``."""
    n = _PRIMES[-1] - 2 if _PRIMES else PRIME_LIMIT - 1
    while len(_PRIMES) <= i:
        if is_prime(n):
            _PRIMES.append(n)
        n -= 2
    return _PRIMES[i]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 7 and 61 decide every n < 4,759,123,141."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 61):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root_tuples(tower: ExtensionTower, orders, p: int):
    """Every tuple of roots mod p of the tower's levels, innermost first, or
    None unless each level's defining polynomial, its coefficients evaluated
    at each tuple of the levels below, has ``degree`` distinct roots mod p.
    ``orders`` marks the levels that are cyclotomic polynomials.  The caller
    checks that p divides no coefficient denominator."""
    tuples = [()]
    for gen, m in zip(tower.generators, orders):
        found, roots_of = [], {}  # a level over Q has one polynomial for all tuples
        for below in tuples:
            f = tuple(_value_mod(c, below, p) for c in gen.lower_coeffs) + (1,)
            if f not in roots_of:
                roots_of[f] = _unity_roots(m, p) if m else _split_roots(list(f), p)
            if roots_of[f] is None:
                return None
            found += [below + (r,) for r in roots_of[f]]
        tuples = found
    return tuples


def _unity_order(gen: Generator):
    """m if the generator's defining polynomial is the m-th cyclotomic
    polynomial, else None.  That polynomial has integer coefficients, reads
    the same reversed and has degree phi(m) = d, so m <= 2 d^2."""
    if not all(c.is_rational() for c in gen.lower_coeffs):
        return None
    coeffs = tuple(c.rational_value() for c in gen.lower_coeffs) + (1,)
    if coeffs != coeffs[::-1] or any(c.denominator != 1 for c in coeffs):
        return None
    bound = 2 * gen.degree ** 2
    phi = list(range(bound + 1))  # Euler's totient by a sieve
    for q in range(2, bound + 1):
        if phi[q] == q:
            for j in range(q, bound + 1, q):
                phi[j] -= phi[j] // q
    return next((m for m in range(3, bound + 1)
                 if phi[m] == gen.degree and cyclotomic_poly(m) == coeffs), None)


def _unity_roots(m: int, p: int):
    """The roots mod p of the m-th cyclotomic polynomial, the primitive m-th
    roots of unity, if p = 1 mod m, when they are distinct; else None."""
    if p % m != 1:
        return None
    factors = [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]
    for a in range(2, p):
        z = pow(a, (p - 1) // m, p)  # its order divides m; is it m?
        if all(pow(z, m // q, p) != 1 for q in factors):
            return [pow(z, j, p) for j in range(1, m) if gcd(j, m) == 1]


def _value_mod(c: "RingElement", roots, p: int) -> int:
    """c mod p with its tower's generators at ``roots``."""
    total = 0
    for exps, a in zip(c.tower.basis, c.numerators):
        if a:
            total += a * prod(pow(r, e, p) for r, e in zip(roots, exps))
    return total * pow(c.denominator, -1, p) % p


# Univariate polynomials mod p: lists of ints, ascending, as in von zur Gathen
# and Gerhard, *Modern Computer Algebra*, ch. 14.

class _RepeatedRoot(Exception):
    """A defining polynomial has a repeated root mod p."""


def _split_roots(f: list, p: int) -> list:
    """The roots of the monic f mod p if it has deg f distinct ones, that is
    if f divides x^p - x, else None; found by Cantor-Zassenhaus splitting.
    Raises ``_RepeatedRoot`` if gcd(f, f') != 1 mod p (p > deg f)."""
    d = len(f) - 1
    if d > 1 and _powmod([0, 1], p, f, p) != [0, 1] + [0] * (d - 2):
        if len(_gcd(f, [i * c for i, c in enumerate(f)][1:], p)) > 1:
            raise _RepeatedRoot
        return None
    return _roots(f, p)


def _roots(f: list, p: int) -> list:
    """The roots of a monic f that splits into distinct linear factors mod
    p > 2: gcd(f, (x + a)^((p-1)/2) - 1) splits f for about half of all a,
    tried in turn from a = 1."""
    if len(f) == 2:
        return [-f[0] % p]
    for a in range(1, p):
        h = _powmod([a, 1], (p - 1) // 2, f, p)
        h[0] -= 1
        g = _gcd(f, h, p)
        if 2 <= len(g) < len(f):
            return _roots(g, p) + _roots(_divmod(f, g, p)[0], p)


def _divmod(a: list, f: list, p: int):
    """Quotient and remainder mod p of a by the monic f, the remainder padded
    to deg f coefficients."""
    a, d = list(a), len(f) - 1
    q = [0] * max(0, len(a) - d)
    for i in range(len(a) - 1, d - 1, -1):
        c = q[i - d] = a[i] % p
        if c:
            for j in range(d):
                a[i - d + j] -= c * f[j]
    return q, [x % p for x in a[:d]] + [0] * (d - len(a))


def _powmod(base: list, e: int, f: list, p: int) -> list:
    """base^e mod (f, p), e >= 1, as deg f coefficients."""
    result, base = None, _divmod(base, f, p)[1]
    while True:
        if e & 1:
            result = base if result is None else _divmod(_mul(result, base), f, p)[1]
        e >>= 1
        if not e:
            return result
        base = _divmod(_mul(base, base), f, p)[1]


def _mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _gcd(a: list, b: list, p: int) -> list:
    """The monic gcd mod p of a and b, a monic."""
    while any(b):
        while not b[-1]:
            b = b[:-1]
        inverse = pow(b[-1], -1, p)
        b = [x * inverse % p for x in b]
        a, b = b, _divmod(a, b, p)[1]
    return a


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

# Distinct towers that ``extend`` keeps interned, the least recently used
# dropped first; a certificate file's towers are its generator prefixes.
TOWER_CACHE_SIZE = 64


@lru_cache(maxsize=TOWER_CACHE_SIZE)
def _interned(base: ExtensionTower, name: str, coeffs: tuple) -> ExtensionTower:
    """The tower of ``base`` and a generator with lower coefficients
    ((numerators, denominator), ...) over ``base``, in lowest terms."""
    gen = Generator(name, len(coeffs), tuple(RingElement(base, *c) for c in coeffs))
    return ExtensionTower(base.generators + (gen,))


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
        # (an int hashes as the equal Fraction does)
        if self.is_rational():
            a, den = self.numerators[0], self.denominator
            return hash(a) if den == 1 else hash(Q(a, den))
        return hash((self.numerators, self.denominator))

    # -- output ------------------------------------------------------------

    def text(self) -> str:
        """Canonical text: terms ascending by exponent tuple, each coefficient
        in lowest terms with a positive denominator and every generator
        printed with an explicit exponent, e.g. ``(1/6)*u^1*z3^0``; ``0`` when
        there are no terms."""
        numerators, den = self.numerators, self.denominator
        parts = []
        for i, suffix in self.tower.vocabulary().order:
            a = numerators[i]
            if a:
                g = gcd(a, den)
                parts.append(f"({a // g}){suffix}" if g == den
                             else f"({a // g}/{den // g}){suffix}")
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

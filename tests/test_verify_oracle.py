"""``verify`` against an independent oracle: sympy's expansion and its
multivariate division by the tower's defining polynomials.

The oracle reads only the certificate's data (exponent tuples and rational
coefficients), never kwaring's arithmetic.  Since every tower is monic and
triangular, the defining polynomials have pairwise coprime leading terms
g_j^(d_j) under lex order with later generators first, so they are a
Groebner basis: the identity holds exactly when the remainder is zero.

Certificates: true identities from the constructions, made less regular by
a diagonal change of variables and by cancelling pairs
(c * lam^k, G), (-c, lam * G) with random tower elements lam; random
certificates that are almost always false; and single-coefficient
corruptions of the true ones, which must return False and never raise.
Each certificate goes through ``verify``, through its modular kernel called
directly and through the exact fallback that ``verify`` takes for a tower
without split primes.
"""

import random
from itertools import product
from math import lcm, prod

import numpy as np
import pytest
import sympy

from kwaring.algebra import EMPTY_TOWER, roots_of_unity_tower
from kwaring.decomp import (
    Certificate,
    _cleared,
    _expanded,
    _height_bound,
    _modular_kernel,
    decompose,
    monomial_linear_decomp,
    product_linear,
    special_x04x1x2,
    verify,
)
from kwaring.polynomials import Monomial, Polynomial
from kwaring.rank import KInstance
from kwaring.rationals import Q


class SymbolicTower:
    """A tower's generators as sympy symbols g0, g1, ... and its defining
    polynomials, read from the coefficient terms of its generators."""

    def __init__(self, tower):
        gens = tower.generators
        self.gs = sympy.symbols(f"g0:{len(gens)}")
        self.relations = [
            self.gs[j] ** gen.degree
            + sum(self.element(coeff.terms.items()) * self.gs[j] ** i
                  for i, coeff in enumerate(gen.lower_coeffs))
            for j, gen in enumerate(gens)
        ]

    def element(self, terms):
        """sympy expression of (exponents, rational) terms."""
        return sum(
            sympy.Rational(int(c.numerator), int(c.denominator))
            * prod(g ** e for g, e in zip(self.gs, exps))
            for exps, c in terms
        )

    def is_zero(self, expr, *xs) -> bool:
        """Whether expr vanishes modulo the defining polynomials."""
        expr = sympy.expand(expr)
        if expr == 0 or not self.gs:
            return expr == 0
        _, rem = sympy.reduced(expr, self.relations, *reversed(self.gs), *xs, order="lex")
        return sympy.expand(rem) == 0


def oracle(cert: Certificate) -> bool:
    xs = sympy.symbols(f"x0:{len(cert.variables)}")
    sym = SymbolicTower(cert.tower)
    expr = -prod(x ** e for x, e in zip(xs, cert.target.exponents))
    for scalar, form in cert.summands:
        g = sum(sym.element(c.terms.items()) * prod(x ** e for x, e in zip(xs, exps))
                for exps, c in form.terms.items())
        expr += sym.element(scalar.terms.items()) * g ** cert.k
    return sym.is_zero(expr, *xs)


def verdicts(cert) -> set:
    """The verdicts of ``verify``, of its modular kernel called directly and
    of its exact fallback.  The modular kernel returns None, and is left
    out, on the nested cubic tower alone, which has no split prime."""
    modular = _modular_kernel(*_cleared(cert))
    assert (modular is None) == (cert.tower == _nested_cubic_tower())
    return {verify(cert), _expanded(cert)} | ({modular} - {None})


def assert_height_bounds(cert):
    """``_height_bound`` dominates every coordinate of the exact difference
    that the modular kernel reduces, common * (sum_j s_j G_j^k - M) with
    common its summands' common denominator, an integer vector; the
    difference is expanded in the tower's ``Polynomial`` arithmetic."""
    ring, parts, k, _ = _cleared(cert)
    _, common, height = _height_bound(ring, parts, k)
    difference = -cert.target.to_polynomial(cert.tower)
    for scalar, form in cert.summands:
        difference = difference + form ** k * scalar
    coords = [Q(a * common, c.denominator) for c in difference.terms.values()
              for a in c.numerators]
    assert all(x.denominator == 1 for x in coords)
    assert height >= max(map(abs, coords), default=0)


def _rational(rng):
    return Q(rng.choice([-1, 1]) * rng.randrange(1, 7), rng.randrange(1, 6))


def _element(tower, rng):
    """A random tower element with a few nonzero basis coefficients."""
    out = tower.zero()
    for _ in range(rng.randrange(1, 3)):
        exps = tuple(rng.randrange(d) for d in tower.degrees)
        out = out + tower.element({exps: _rational(rng)})
    return out if not out.is_zero() else tower.one()


def _random_form(tower, nv, d, rng):
    form = Polynomial.zero(tower, nv)
    while form.is_zero():
        for _ in range(rng.randrange(1, 4)):
            exps = [0] * nv
            for _ in range(d):
                exps[rng.randrange(nv)] += 1
            form = form + Polynomial.monomial(tower, exps, _element(tower, rng))
    return form


def _with(cert, summands):
    return Certificate(cert.variables, cert.k, cert.target, cert.tower, tuple(summands))


def _rescaled(cert, rng):
    """Substitute x_i -> lam_i x_i and divide the scalars by lam^target."""
    lam = [_rational(rng) for _ in cert.variables]
    factor = prod(l ** e for l, e in zip(lam, cert.target.exponents))
    out = []
    for scalar, form in cert.summands:
        terms = {e: c * prod(l ** a for l, a in zip(lam, e)) for e, c in form.terms.items()}
        out.append((scalar * (1 / factor), Polynomial(cert.tower, form.nvars, terms)))
    return _with(cert, out)


def _with_cancelling_pairs(cert, rng):
    tower, nv, d = cert.tower, len(cert.variables), cert.target.degree // cert.k
    out = list(cert.summands)
    for _ in range(rng.randrange(1, 3)):
        c, lam = _element(tower, rng), _element(tower, rng)
        g = _random_form(tower, nv, d, rng)
        out += [(c * lam ** cert.k, g), (-c, g * lam)]
    rng.shuffle(out)
    return _with(cert, out)


def _corrupted(cert, rng):
    """Add a random nonzero amount to one scalar or one form coefficient."""
    out = list(cert.summands)
    j = rng.randrange(len(out))
    scalar, form = out[j]
    delta = _element(cert.tower, rng)
    if rng.random() < 0.5:
        out[j] = (scalar + delta, form)
    else:
        e = rng.choice(sorted(form.terms))
        terms = dict(form.terms)
        terms[e] = terms[e] + delta
        if terms[e].is_zero():
            terms[e] = terms[e] + delta
        out[j] = (scalar, Polynomial(cert.tower, form.nvars, terms))
    return _with(cert, out)


def _sqrt_tower():
    return EMPTY_TOWER.extend("u", (Q(-1, 6), Q(0), Q(1)))


def _two_sqrt_tower():
    return _sqrt_tower().extend("w", (Q(-5, 7), Q(0), Q(1)))


def _nested_tower():
    t = _sqrt_tower()
    return t.extend("w", (-t.generator_element("u"), Q(0), Q(1)))  # w^2 = u


def _nested_cubic_tower():
    """u^2 = 1/2, w^3 = (u/3) w^2: (u w^2)^2 = w^2 / 36, so the table's
    common denominator is 36."""
    t = EMPTY_TOWER.extend("u", (Q(-1, 2), Q(0), Q(1)))
    return t.extend("w", (Q(0), Q(0), t.generator_element("u") * Q(-1, 3), Q(1)))


def _two_square_identity(tower, rng):
    """x0*x1 = (1/4)(x0 + x1)^2 - (1/4)(x0 - x1)^2 over the given tower."""
    x0, x1 = (Polynomial.variable(tower, 2, i) for i in range(2))
    cert = Certificate(("x0", "x1"), 2, Monomial((1, 1)), tower,
                       ((tower.scalar(Q(1, 4)), x0 + x1), (tower.scalar(Q(-1, 4)), x0 - x1)))
    return _with_cancelling_pairs(cert, rng)


def _two_square_31():
    """x0^3 x1 = (1/4)(X + Y)^2 - (1/4)(X - Y)^2 with X = x0^2, Y = x0 x1,
    over the tower i^2 = -1 of the two-square identity."""
    tower = EMPTY_TOWER.extend("i", (Q(1), Q(0), Q(1)))
    x, y = (Polynomial.monomial(tower, e, 1) for e in ((2, 0), (1, 1)))
    return Certificate(("x0", "x1"), 2, Monomial((3, 1)), tower,
                       ((tower.scalar(Q(1, 4)), x + y), (tower.scalar(Q(-1, 4)), x - y)))


TRUE_CERTS = {
    "product_linear(3)": lambda rng: product_linear(3),
    "product_linear(4)": lambda rng: product_linear(4),
    "two_square(3,1)": lambda rng: _two_square_31(),
    "decompose k=3 (2,2,2)": lambda rng: decompose(KInstance(Monomial((2, 2, 2)), 3)),
    "special_x04x1x2": lambda rng: special_x04x1x2(),
    "grid (1, 2)": lambda rng: monomial_linear_decomp((1, 2)),
    "grid (1, 1, 2)": lambda rng: monomial_linear_decomp((1, 1, 2)),
    "grid (2, 3)": lambda rng: monomial_linear_decomp((2, 3)),
    "u^2 = 1/6": lambda rng: _two_square_identity(_sqrt_tower(), rng),
    "u^2 = 1/6, w^2 = 5/7": lambda rng: _two_square_identity(_two_sqrt_tower(), rng),
    "u^2 = 1/6, w^2 = u": lambda rng: _two_square_identity(_nested_tower(), rng),
    "u^2 = 1/2, w^3 = (u/3) w^2": lambda rng: _two_square_identity(_nested_cubic_tower(), rng),
    "cyclotomic 3, 4, 5": lambda rng: _two_square_identity(roots_of_unity_tower([3, 4, 5]), rng),
}


def corruptions(name: str, seed: int) -> list:
    """(true variant, its corruption) for the certificate ``TRUE_CERTS[name]``,
    its rescaling and a copy with cancelling pairs, drawn from one seeded
    rng."""
    rng = random.Random(f"{name} {seed}")
    cert = TRUE_CERTS[name](rng)
    variants = [cert, _rescaled(cert, rng), _with_cancelling_pairs(cert, rng)]
    return [(variant, _corrupted(variant, rng)) for variant in variants]


@pytest.mark.parametrize("name", sorted(TRUE_CERTS))
@pytest.mark.parametrize("seed", range(2))
def test_true_identities_and_their_corruptions(name, seed):
    for variant, bad in corruptions(name, seed):
        assert oracle(variant) is True and oracle(bad) is False
        assert verdicts(variant) == {True}
        assert verdicts(bad) == {False}
        assert_height_bounds(bad)


@pytest.mark.parametrize(
    "tower",
    [EMPTY_TOWER, _sqrt_tower(), _nested_tower(), _nested_cubic_tower(),
     roots_of_unity_tower([3, 4])],
    ids=["Q", "sqrt", "nested", "nested-cubic", "cyclotomic"],
)
def test_random_certificates_agree_with_the_oracle(tower):
    rng = random.Random(repr(tower))
    for _ in range(12):
        nv, k, d = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 3)
        exps = [0] * nv
        for _ in range(k * d):
            exps[rng.randrange(nv)] += 1
        summands = [(_element(tower, rng), _random_form(tower, nv, d, rng))
                    for _ in range(rng.randrange(1, 4))]
        cert = Certificate(tuple(f"x{i}" for i in range(nv)), k, Monomial(tuple(exps)),
                           tower, tuple(summands))
        expected = oracle(cert)
        assert verdicts(cert) == {expected}
        if not expected:
            assert_height_bounds(cert)


def test_structure_table_matches_normal_form_products():
    """Products, sums and powers of tower elements against sympy's reduction
    by the defining polynomials, on towers whose common denominator L is
    mostly above 1."""
    rng = random.Random(7)
    for tower in (_sqrt_tower(), _two_sqrt_tower(), _nested_tower(),
                  _nested_cubic_tower(), roots_of_unity_tower([5, 6])):
        sym = SymbolicTower(tower)

        def value(x):
            return sym.element(x.terms.items())

        for _ in range(20):
            a, b, e = _element(tower, rng), _element(tower, rng), rng.randrange(5)
            assert sym.is_zero(value(a) * value(b) - value(a * b))
            assert sym.is_zero(value(a) + value(b) - value(a + b))
            assert sym.is_zero(value(a) ** e - value(a ** e))
            # an out-of-range monomial, reduced by normalize
            exps = tuple(rng.randrange(3 * d) for d in tower.degrees)
            terms = {exps: Q(2, 3), (0,) * len(exps): Q(1)}
            assert sym.is_zero(sym.element(terms.items())
                               - sym.element(tower.normalize(terms).items()))
    # L is the least common denominator of the structure constants
    assert _sqrt_tower().integer_structure().denominator == 6
    u, w = (_nested_tower().generator_element(g) for g in "uw")
    assert (u * w) * (u * w) == u * Q(1, 6)
    assert _nested_tower().integer_structure().denominator == 6
    u, w = (_nested_cubic_tower().generator_element(g) for g in "uw")
    assert (u * w * w) * (u * w * w) == w * w * Q(1, 36)
    assert _nested_cubic_tower().integer_structure().denominator == 36
    assert roots_of_unity_tower([3, 4, 5]).integer_structure().denominator == 1


TABLE_TOWERS = {
    "Q": EMPTY_TOWER,
    "sqrt": _sqrt_tower(),
    "two-sqrt": _two_sqrt_tower(),
    "nested": _nested_tower(),
    "nested-cubic": _nested_cubic_tower(),
    "cyclotomic 3, 4": roots_of_unity_tower([3, 4]),
    "cyclotomic 3, 4, 5": roots_of_unity_tower([3, 4, 5]),
    "cyclotomic 5, 6": roots_of_unity_tower([5, 6]),
    "special_x04x1x2": special_x04x1x2().tower,
}


@pytest.mark.parametrize("tower", TABLE_TOWERS.values(), ids=TABLE_TOWERS.keys())
def test_every_table_row_is_the_normal_form_of_its_basis_product(tower):
    """Over all basis pairs: ``mul`` of the unit vectors of b_i and b_j, the
    table row T_ij, divided by L, is b_i * b_j modulo the defining
    polynomials (sympy's reduction), and L is the lcm of the denominators of
    those normal forms; the row norm is its definition over the table."""
    ring, sym = tower.integer_structure(), SymbolicTower(tower)
    # mixed-radix basis, first generator fastest
    basis = [tuple(reversed(e)) for e in product(*(range(d) for d in reversed(tower.degrees)))]
    n, big = len(basis), ring.denominator
    assert ring.size == n
    units = np.eye(n, dtype=int).tolist()
    dens, norms = [], []
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            table_row = ring.mul(units[i], units[j])
            row = [Q(t, big) for t in table_row]
            dens += [c.denominator for c in row]
            norms.append(sum(map(abs, table_row)))
            product_ij = sym.element([(tuple(a + b for a, b in zip(bi, bj)), Q(1))])
            assert sym.is_zero(product_ij - sym.element(zip(basis, row))), (i, j)
    assert big == lcm(*dens)
    assert ring.row_norm == max(norms)

"""Construction and exact verification of power-sum certificates.

A certificate records a claimed identity

    M = sum_j  c_j * (G_j)^k

with M a monomial of degree k*d, the G_j homogeneous degree-d forms and the
c_j scalars, everything over one extension tower; a scalar given as a
rational is stored as that element of the tower.  ``verify`` re-expands the
right side exactly, never in floating point: a tower element already is an
integer vector over one denominator (``[n]`` over Q), so clearing a form or
a scalar takes an lcm and a scale.  The expansion runs in numpy int64
modulo primes just below 2^26 at which the tower splits, whose product
exceeds a certified bound H on every coefficient of the difference.  At
such a prime the tower's elements are their values at its n root tuples
mod p, so tower products are elementwise, and a difference that vanishes
modulo every prime vanishes exactly.  A tower with no split prime, as one
with a repeated root, is expanded in its own exact arithmetic instead.
Either way a True verdict proves the identity.  No construction in this
module returns an unverified certificate.

The constructions:

* ``monomial_linear_decomp``: root-of-unity averaging.  With a_min at
  position i0 and m_i = a_i + 1 elsewhere,

      x^a = (1/c) sum_{j} prod_i w_i^(-j_i a_i) (x_{i0} + sum_i w_i^{j_i} x_i)^D

  where w_i is a primitive m_i-th root of unity, D = deg x^a and
  c = multinomial(D; a) * prod m_i.  Exactly prod m_i summands, which is the
  monomial's rank in powers of linear forms.
* ``product_linear``: the averaging for x0...x(k-1), whose roots are +-1:
  k! 2^(k-1) X1...Xk = sum over sign vectors e in {1} x {+-1}^(k-1) of
  (prod e_i) (X1 + e_2 X2 + ... + e_k Xk)^k.
* ``special_x04x1x2``: x0^4 x1 x2 as a sum of three cubes over the tower
  u^2 = 1/6, v^3 = -2.
* transformers ``group_substitute`` / ``specialize_cert`` / ``multiply_cert``
  that push certificates through monomial substitution, variable
  identification, and multiplication by N (N^k times a certificate for M is
  a certificate for N^k M).  Each one only moves the exponents of every
  form's terms (``Polynomial.map_exponents``), does no tower arithmetic, and
  builds its result through ``_transformed``.
* ``decompose``: the full pipeline, which builds with the rank rule that
  attains classify's upper bound (see ``rank.RULES``): block grouping,
  ``group_substitute`` of an averaging certificate, or the three-cube
  route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, product as iproduct
from math import factorial, lcm, prod
from operator import add
from typing import NamedTuple

import numpy as np

from .algebra import EMPTY_TOWER, NAME_RE, RingElement, roots_of_unity_tower, unity_root
from .polynomials import Monomial, Polynomial, multinomial_table
from .rationals import Q, is_rational


class CertificateError(ValueError):
    """A certificate could not be built or an internal check failed."""


class MalformedCertificateError(CertificateError):
    """Structurally invalid certificate (wrong degrees, towers, arity)."""


def default_names(nvars: int) -> tuple:
    return tuple(f"x{i}" for i in range(nvars))


@dataclass
class Certificate:
    """A power-sum identity for a monomial in one or more distinct variables
    named as ``algebra.NAME_RE`` allows.  Immutable by convention.  verify()
    sets ``verified``; ``certfile.parse`` copies it from the file without
    checking it, so it proves nothing about the file: only ``verify`` proves
    an identity, by expanding it.  A summand's scalar may be given as a
    rational (int or ``Q``); it is stored as that element of the tower."""

    variables: tuple
    k: int
    target: Monomial
    tower: ExtensionTower
    summands: tuple  # ((scalar: RingElement, form: Polynomial), ...)
    provenance: tuple = ()
    verified: bool = False

    def __post_init__(self):
        names = self.variables
        if (not names or not all(map(NAME_RE.fullmatch, names))
                or len(set(names)) < len(names)):
            raise MalformedCertificateError(f"bad variable names: {names!r}")
        self.summands = tuple((self.tower.scalar(s) if is_rational(s) else s, form)
                              for s, form in self.summands)

    @property
    def summand_count(self) -> int:
        return len(self.summands)


def verify(cert: Certificate) -> bool:
    """Exactly expand the summands and compare against the target.

    Malformed certificates (non-homogeneous or wrong-degree forms, mixed
    towers, arity mismatches) raise; a well-formed certificate whose
    expansion differs from the target returns False.  True means the
    identity is proven exactly.

    Each summand's form and scalar are brought to integer vectors (of length
    1 over Q) over their least common denominators by scaling the elements'
    numerators (``_cleared``), and the expansion runs modulo split primes of
    the tower (``_modular_kernel``).  A tower with too few split primes
    among the ``algebra.SPLIT_SEARCH`` largest below 2^26, as one with a
    repeated root, is expanded in its own ``Polynomial`` arithmetic instead
    (``_expanded``), which is exact but slower.
    """
    ok = _modular_kernel(*_cleared(cert))
    if ok is None:
        ok = _expanded(cert)
    cert.verified = ok
    return ok


def _cleared(cert: Certificate):
    """Check the certificate's structure and clear its denominators.

    Returns (ring, parts, k, target exponents), one part per summand:
    (support, form coefficients, D, scalar, D_s) with the form's support
    sorted and every value an integer vector of ``ring``.
    """
    k = cert.k
    if k < 1:
        raise MalformedCertificateError("k must be >= 1")
    nv = len(cert.variables)
    if cert.target.nvars != nv:
        raise MalformedCertificateError("target arity differs from variable list")
    if cert.target.degree % k != 0:
        raise MalformedCertificateError("k does not divide the target degree")
    d = cert.target.degree // k
    ring = cert.tower.integer_structure()
    parts = []
    for scalar, form in cert.summands:
        if not isinstance(form, Polynomial) or form.tower != cert.tower:
            raise MalformedCertificateError("form is not over the certificate tower")
        if form.nvars != nv:
            raise MalformedCertificateError("form arity differs from variable list")
        if set(map(sum, form.terms)) != {d}:
            raise MalformedCertificateError(
                f"forms must be nonzero homogeneous of degree {d}"
            )
        if not isinstance(scalar, RingElement) or scalar.tower != cert.tower:
            raise MalformedCertificateError("scalar is not over the certificate tower")
        support, elements = zip(*sorted(form.terms.items()))
        coeffs, den = ring.clear(elements)
        parts.append((support, coeffs, den, scalar.numerators, scalar.denominator))
    return ring, parts, k, cert.target.exponents


def _expanded(cert: Certificate) -> bool:
    """Whether sum_j c_j G_j^k equals the target in the tower's own exact
    ``Polynomial`` arithmetic: the check for a tower without split primes."""
    total = Polynomial.zero(cert.tower, len(cert.variables))
    for scalar, form in cert.summands:
        total = total + form ** cert.k * scalar
    return total == cert.target.to_polynomial(cert.tower)


# Size of the modular kernel's largest temporary arrays.
BLOCK_BYTES = 1 << 18


def _modular_kernel(ring, parts, k: int, target):
    """Whether the expansion minus the target vanishes, decided modulo split
    primes in numpy int64; None for a tower with too few split primes.

    The primes are the fewest of the tower's split primes whose product
    exceeds ``_height_bound``, with their evaluation matrices stacked
    (``IntegerStructure.split_primes_above``).  Every cleared coefficient and
    scalar is mapped once, mod each prime, to its values at the tower's n
    root tuples, and from there every tower product is elementwise.

    Summands are grouped by support.  The scalar enters as the zeroth power
    of the first term, ``pw[0] = s``, the others start at ``pw[0] = 1``, and
    ``pw[b] = pw[b-1] * c``.  A leaf, one exponent assignment (b_u) of the t
    terms, is the product of its powers pw_u[b_u].  The terms split into
    halves [0, h) and [h, t), h = t // 2, and a leaf pairs a first-half
    assignment of degree a with a second-half one of degree k - a.  Every
    summand multiplies out each half's assignments of every degree, and for
    each split one matmul per root tuple sums the products of the pairs
    over the summands (``_leaf_sums``).  Leaves are multiplied by their
    multinomials, and all are grouped by output monomial with one sort.

    Why a zero result is a proof.  The integer structure's product ``mul``
    returns L*x*y, and the exact difference X that ``_height_bound`` bounds
    is the one whose leaves take k + t - 1 such products, each summand's
    scalar scaled to the common denominator of ``_height_bound``.  At a
    split prime p (dividing neither L nor a coefficient denominator),
    evaluation at the n root tuples is a ring isomorphism from (Z/p)[tower]
    to F_p^n, so it maps L*x*y to L * x(r) * y(r) at every tuple r: scaling
    each summand's scalar by L^(k+t-1) once makes the elementwise leaves the
    evaluations of X's leaves mod p.  So the values all vanish at p exactly
    when every coordinate of X vanishes mod p, and, at primes whose product
    exceeds H >= |every coordinate of X|, exactly when X = 0.  Over Q
    (n = 1) the evaluation is the identity and is skipped.
    """
    dens, common, height = _height_bound(ring, parts, k)
    split = ring.split_primes_above(height)
    if split is None:
        return None
    primes, moduli, points = split
    n, m = ring.size, len(primes)
    groups: dict = {}  # support -> each summand's coefficients, then its scalar
    for (support, coeffs, _, s, _), den in zip(parts, dens):
        flat = groups.setdefault(support, [])
        for c in coeffs:
            flat += c
        scale = common // den * ring.denominator ** (k + len(support) - 1)
        flat += [scale * a for a in s]
    sums = []
    for support, flat in groups.items():
        t = len(support)
        values = _evaluate(_residues(flat, moduli).reshape(m, -1, n), points, moduli)
        leaves = _leaf_sums(values.reshape(m, -1, t + 1, n), k, moduli)
        leaves *= _multinomial_residues(t, k, primes)
        sums.append(_reduce(leaves, moduli))
    if not sums:
        return False
    order, starts, outputs = _output_plan(tuple(groups), k)
    hit = outputs.get(target)
    if hit is None:
        return False
    leaves = np.concatenate(sums, axis=2)[:, :, order]
    total = _reduce(np.add.reduceat(leaves, starts, axis=2), moduli)
    total[:, :, hit] -= _residues([common], moduli)  # 1 is 1 at every root tuple
    return not total.any()


# A sum of int64 products of two residues, each below (p - 1)^2 < 2^52,
# stays below 2^63 for at most this many products added to one reduced
# value below p: the cross step sums one per summand, the evaluation one
# per basis element, and each reduces after this many.
_MAX_TERMS = 2048


def _evaluate(values, points, moduli):
    """Coordinate vectors (primes, rows, size) mod each prime as their values
    at the tower's root tuples, reduced; ``points`` holds each prime's
    transposed evaluation matrix, or is None over Q."""
    if points is None:
        return values
    n = values.shape[2]
    out = np.zeros(values.shape, dtype=np.int64)
    for j in range(0, n, _MAX_TERMS):
        out += values[:, :, j:j + _MAX_TERMS] @ points[:, j:j + _MAX_TERMS]
        _reduce(out, moduli)
    return out


def _leaf_sums(values, k: int, moduli):
    """Per leaf and root tuple, sum_j of summand j's product of powers,
    reduced: (primes, size, leaves), leaves in ``_split_plan`` order.

    ``values`` holds each summand's t coefficients and its scalar at every
    root tuple, (primes, summands, t + 1, size).  Summands go in blocks
    whose powers and half products stay near ``BLOCK_BYTES``; each block
    adds its cross products to the sums, which are reduced before they
    would hold more than ``_MAX_TERMS`` of them.
    """
    m, nmembers, t, n = values.shape
    t -= 1
    if t == 1:  # no split: the one leaf is pw[k]
        total = np.zeros((m, n, 1), dtype=np.int64)
        block = _block(m, n, k, t, 1)
        for j in range(0, nmembers, block):
            pw = _powers(values[:, j:j + block], k, moduli)
            total += pw[:, :, k, 0].sum(axis=2, keepdims=True)
            _reduce(total, moduli)
        return total
    plan = _split_plan(t, k)
    out = np.empty((m, n, len(plan.position)), dtype=np.int64)
    views = [(out[..., l0:l1].reshape(m, n, a1 - a0, b1 - b0), slice(a0, a1), slice(b0, b1))
             for a0, a1, b0, b1, l0, l1 in plan.splits]
    block = _block(m, n, k, t, max(plan.first.shape[1], plan.second.shape[1]))
    summed = 0  # cross products in each sum since ``out`` was reduced
    for j in range(0, nmembers, block):
        pw = _powers(values[:, j:j + block], k, moduli).reshape(m, n, (k + 1) * t, -1)
        first = _half_products(pw, plan.first, moduli)
        second = _half_products(pw, plan.second, moduli).swapaxes(2, 3)
        if summed + pw.shape[3] > _MAX_TERMS:
            _reduce(out, moduli)
            summed = 0
        summed += pw.shape[3]
        for view, rows, cols in views:
            if j:
                view += first[..., rows, :] @ second[..., cols]
            else:
                np.matmul(first[..., rows, :], second[..., cols], out=view)
    return _reduce(out, moduli)


def _block(m: int, n: int, k: int, t: int, rows: int) -> int:
    """Summands per block: the largest temporaries, the powers and a half's
    products (``rows`` values per summand), stay near ``BLOCK_BYTES``."""
    return min(_MAX_TERMS, max(1, BLOCK_BYTES // (8 * m * n * max((k + 1) * t, rows))))


def _powers(values, k: int, moduli):
    """pw[b] = pw[b-1] * c for b = 1..k from pw[0] = s for the first term
    and 1 for the others: (primes, size, k + 1, terms, summands) from
    ``values`` of shape (primes, summands, terms + 1, size)."""
    v = np.ascontiguousarray(values.transpose(0, 3, 2, 1))
    m, n, t, nmembers = v.shape
    c = v[:, :, :t - 1]
    pw = np.ones((m, n, k + 1, t - 1, nmembers), dtype=np.int64)
    pw[:, :, 0, 0] = v[:, :, t - 1]
    for b in range(1, k + 1):
        pw[:, :, b] = _reduce(pw[:, :, b - 1] * c, moduli)
    return pw


def _half_products(pw, index, moduli):
    """Each half assignment's product of powers, (primes, size, rows,
    summands): ``index`` holds, per term of the half, the flat (power, term)
    position of its power in every row, and takes one product less than
    the half has terms."""
    out = np.take(pw, index[0], axis=2)
    for row in index[1:]:
        out = _reduce(out * np.take(pw, row, axis=2), moduli)
    return out


class _SplitPlan(NamedTuple):
    """How ``_leaf_sums`` expands (sum of t terms)^k.

    ``first`` and ``second`` give, per term of each half, the flat
    (power * t + term) position of its power in every assignment of the
    half, sorted by degree; ``splits`` holds one row per degree a of the
    first half: its rows [a0, a1), the second half's rows [b0, b1) of degree
    k - a, and the leaves [l0, l1) they pair into, first-half row major.
    ``position`` gives, for each row of ``multinomial_table(t, k)``, the
    place of its leaf in that order.
    """

    first: np.ndarray
    second: np.ndarray
    splits: tuple
    position: np.ndarray


# Plans, output plans and multinomial residues kept, one per (t, k),
# (supports, k) and (t, k, primes).  Output plans have the most keys, 100-104
# in a decompose-sweep run (seeds 1-13).
PLAN_CACHE_SIZE = 128


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _split_plan(t: int, k: int) -> _SplitPlan:
    """The split plan of (sum of t terms)^k, read off ``multinomial_table(t, k)``."""
    counts = multinomial_table(t, k)[1]
    h = t // 2
    halves = []
    for lo, hi in ((0, h), (h, t)):
        part = counts[:, lo:hi]
        degree = part.sum(axis=1)
        rows, row_of = np.unique(np.column_stack((degree, part)), axis=0, return_inverse=True)
        index = (rows[:, 1:].T * t + np.arange(lo, hi)[:, None]).astype(np.intp)
        start = np.searchsorted(rows[:, 0], np.arange(k + 2))  # degree a: [start[a], start[a+1])
        halves.append((index, start, row_of.reshape(-1)))
    (first, fstart, frow), (second, sstart, srow) = halves
    fsize, ssize = np.diff(fstart), np.diff(sstart)
    leaf_start = np.concatenate(([0], np.cumsum(fsize * ssize[::-1])))
    a = counts[:, :h].sum(axis=1)
    position = leaf_start[a] + (frow - fstart[a]) * ssize[k - a] + srow - sstart[k - a]
    splits = tuple(
        tuple(int(x) for x in (fstart[a], fstart[a + 1], sstart[k - a], sstart[k - a + 1],
                               leaf_start[a], leaf_start[a + 1]))
        for a in range(k + 1) if fsize[a]
    )
    for array in (first, second, position):
        array.flags.writeable = False
    return _SplitPlan(first, second, splits, position)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _output_plan(supports: tuple, k: int):
    """How the leaves of support groups, each in ``_split_plan`` order and
    concatenated in group order, sum to output monomials: the leaf order
    that sorts them by monomial, where each monomial's run starts in it,
    and {monomial: run}."""
    monomials, places, offset = [], [], 0
    for support in supports:
        t = len(support)
        counts = multinomial_table(t, k)[1]
        monomials.append(counts @ np.array(support, dtype=np.int64))
        places.append(_split_plan(t, k).position + offset)
        offset += len(counts)
    mono = np.concatenate(monomials)
    order = np.lexsort(mono.T)
    mono = mono[order]
    starts = np.flatnonzero(np.concatenate(([True], (mono[1:] != mono[:-1]).any(axis=1))))
    outputs = {e: run for run, e in enumerate(map(tuple, mono[starts].tolist()))}
    return np.concatenate(places)[order], starts, outputs


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _multinomial_residues(t: int, k: int, primes: tuple) -> np.ndarray:
    """The multinomials of the leaves of ``_leaf_sums`` mod each prime,
    (primes, 1, leaves)."""
    residues = _residues(multinomial_table(t, k)[2],
                         np.array(primes, dtype=np.int64).reshape(-1, 1))
    out = np.empty_like(residues)
    out[:, _split_plan(t, k).position] = residues
    out = out.reshape(len(primes), 1, -1)
    out.flags.writeable = False
    return out


# From this many entries per prime on, ``_reduce`` divides instead of taking
# remainders: numpy divides by a fixed divisor far faster, but takes three
# calls for it.
_FAST_DIVIDE = 2048


def _reduce(x, moduli):
    """x mod each prime, in place; x is contiguous, of shape (primes, ...),
    and ``moduli`` holds the primes, one per row."""
    p = moduli.reshape(-1, 1)
    flat = x.reshape(len(p), -1)
    if flat.shape[1] < _FAST_DIVIDE:
        flat %= p
    else:
        for row, prime in zip(flat, p[:, 0]):
            q = row // prime
            q *= prime
            row -= q
    return x


def _residues(ints, moduli) -> np.ndarray:
    """Python ints reduced mod each prime: int64 of shape (primes, len(ints))."""
    try:
        return np.array(ints, dtype=np.int64) % moduli.reshape(-1, 1)
    except OverflowError:  # beyond int64: reduce the Python ints
        flat = np.array(ints, dtype=object)
        return np.stack([(flat % int(p)).astype(np.int64) for p in moduli.reshape(-1)])


def _height_bound(ring, parts, k: int):
    """(dens, common, H): each summand's denominator L^(k+t-1) * D^k * D_s
    in the modular kernel, their least common multiple, and H >= |every
    coefficient| of the kernel's exact difference.

    In the 1-norm, ``mul`` grows a product by at most rho = ``ring.row_norm``,
    and a leaf of a summand with t terms takes k + t - 1 products: k powers,
    h - 1 and t - h - 1 half products and one cross product (h = t // 2).
    Summing the products over the summands changes no exact value, so

        H = common + sum_j (common / den_j) |s_j| rho^(k+t_j-1) (sum_u |c_ju|)^k
    """
    dens = [ring.denominator ** (k + len(support) - 1) * den ** k * den_s
            for support, _, den, _, den_s in parts]
    common = lcm(*dens)
    rho = ring.row_norm
    return dens, common, common + sum(
        common // den * sum(map(abs, s)) * rho ** (k + len(support) - 1)
        * sum(map(abs, chain.from_iterable(coeffs))) ** k
        for (support, coeffs, _, s, _), den in zip(parts, dens)
    )


def _must_verify(cert: Certificate) -> Certificate:
    if not verify(cert):
        raise CertificateError("internal error: constructed certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# Elementary constructions


def product_linear(k: int) -> Certificate:
    """x0*...*x(k-1) as 2^(k-1) k-th powers of signed linear forms: the
    root-of-unity averaging certificate for exponents (1, ..., 1)."""
    if k < 2:
        raise CertificateError("k must be >= 2")
    return replace(monomial_linear_decomp((1,) * k),
                   provenance=(f"alternating-sign product identity, k={k}",))


def monomial_linear_decomp(exponents) -> Certificate:
    """Root-of-unity averaging decomposition of x^a into powers of linear forms.

    The summand count equals monomial_rank(exponents); the certificate's k is
    the total degree (forms are linear).
    """
    exps = tuple(int(e) for e in exponents)
    if not exps or any(e < 1 for e in exps):
        raise CertificateError("exponents must be positive")
    degree = sum(exps)
    nv = len(exps)
    i0 = exps.index(min(exps))
    others = [i for i in range(nv) if i != i0]
    ms = {i: exps[i] + 1 for i in others}
    tower = roots_of_unity_tower(ms.values())
    one = tower.one()
    powers = {}
    for m in set(ms.values()):
        w, row = unity_root(tower, m), [one]
        for _ in range(m - 1):
            row.append(row[-1] * w)
        powers[m] = row
    c = factorial(degree) // prod(map(factorial, exps)) * prod(ms.values())
    inv_c = tower.scalar(Q(1, c))
    units = [tuple(int(v == i) for v in range(nv)) for i in range(nv)]
    summands = []
    for js in iproduct(*[range(ms[i]) for i in others]):
        # prod_i w_i^(-j_i a_i), summed in the exponent per root order
        shift = dict.fromkeys(powers, 0)
        terms = {units[i0]: one}
        for i, j in zip(others, js):
            m = ms[i]
            shift[m] -= j * exps[i]
            terms[units[i]] = powers[m][j]
        weight = inv_c
        for m, e in shift.items():
            weight = weight * powers[m][e % m]
        summands.append((weight, Polynomial(tower, nv, terms)))
    cert = Certificate(
        variables=default_names(nv),
        k=degree,
        target=Monomial(exps),
        tower=tower,
        summands=tuple(summands),
        provenance=(
            f"root-of-unity averaging for exponents {exps}, anchor position {i0}",
        ),
    )
    return _must_verify(cert)


def special_x04x1x2() -> Certificate:
    """x0^4 x1 x2 as three cubes over the tower u^2 = 1/6, v^3 = -2:

        (u x0^2 + x1 x2)^3 + (-u x0^2 + x1 x2)^3 + (v x1 x2)^3
    """
    tower = EMPTY_TOWER.extend("u", (Q(-1, 6), Q(0), Q(1)))
    tower = tower.extend("v", (Q(2), Q(0), Q(0), Q(1)))
    u = tower.generator_element("u")
    v = tower.generator_element("v")
    x0sq = Polynomial.monomial(tower, (2, 0, 0), 1)
    x1x2 = Polynomial.monomial(tower, (0, 1, 1), 1)
    one = tower.one()
    cert = Certificate(
        variables=("x0", "x1", "x2"),
        k=3,
        target=Monomial((4, 1, 1)),
        tower=tower,
        summands=(
            (one, x0sq * u + x1x2),
            (one, x0sq * (-u) + x1x2),
            (one, x1x2 * v),
        ),
        provenance=("three-cube certificate for x0^4*x1*x2 over u^2=1/6, v^3=-2",),
    )
    return _must_verify(cert)


# ---------------------------------------------------------------------------
# Certificate transformers


def _transformed(cert: Certificate, variables, target: Monomial, form_map,
                 note: str) -> Certificate:
    """``cert`` with ``form_map`` applied to every form, the new variables
    and target, and ``note`` appended to its provenance; verified."""
    summands = tuple((scalar, form_map(form)) for scalar, form in cert.summands)
    return _must_verify(replace(cert, variables=variables, target=target, summands=summands,
                                provenance=cert.provenance + (note,)))


def group_substitute(cert: Certificate, images) -> Certificate:
    """Substitute an equal-degree monomial for every variable.

    Monomial images of one common degree l turn a certificate for M into one
    for the substituted monomial; forms pick up degree factor l and the
    scalars are untouched.
    """
    images = list(images)
    if len(images) != len(cert.variables):
        raise CertificateError("one image per certificate variable required")
    if not images:
        raise CertificateError("empty image list")
    level = images[0].degree
    out_nv = images[0].nvars
    for img in images:
        if img.degree != level or img.nvars != out_nv:
            raise CertificateError("images must share one degree and variable set")
    target = Monomial((0,) * out_nv)
    for img, e in zip(images, cert.target.exponents):
        target = target * img ** e
    return _transformed(cert, default_names(out_nv), target,
                        lambda form: form.substitute(images),
                        f"group-substitute {', '.join(m.text() for m in images)}")


def specialize_cert(cert: Certificate, identifications: dict) -> Certificate:
    """Identify variables (src -> dst) throughout the certificate."""
    exps = [0] * len(cert.variables)
    for i, e in enumerate(cert.target.exponents):
        exps[identifications.get(i, i)] += e
    return _transformed(cert, cert.variables, Monomial(tuple(exps)),
                        lambda form: form.specialize(identifications),
                        f"specialize {sorted(identifications.items())}")


def multiply_cert(cert: Certificate, n: Monomial) -> Certificate:
    """Turn a certificate for M into one for N^k * M (forms gain a factor N)."""
    if n.nvars != len(cert.variables):
        raise CertificateError("multiplier arity differs from certificate")
    if n.is_one():
        return cert

    def shift(e):
        return tuple(map(add, e, n.exponents))

    return _transformed(cert, cert.variables, cert.target * (n ** cert.k),
                        lambda form: form.map_exponents(shift, form.nvars),
                        f"multiply by {n.text()}")


# ---------------------------------------------------------------------------
# Full pipeline


def decompose(inst: KInstance) -> Certificate:
    """Verified certificate whose summand count equals classify's upper bound.

    It is built by the rule that attains the bound, ``rank.attaining_rule``.
    A malformed certificate here is an internal fault, since the only input
    is the monomial, so it is reported as a plain ``CertificateError``.
    """
    from .rank import attaining_rule, classify  # rank imports this module's builders

    bounds = classify(inst)
    try:
        cert = attaining_rule(bounds).build(inst)
    except MalformedCertificateError as exc:
        raise CertificateError(f"internal error: malformed certificate: {exc}") from exc
    if cert.summand_count != bounds.upper:
        raise CertificateError(
            f"internal error: {cert.summand_count} summands, classify says {bounds.upper}"
        )
    return cert

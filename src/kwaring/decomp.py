"""Construction and exact verification of power-sum certificates.

A certificate records a claimed identity

    M = sum_j  c_j * (G_j)^k

with M a monomial of degree k*d, the G_j homogeneous degree-d forms and the
c_j scalars, everything over one extension tower; a scalar given as a
rational is stored as that element of the tower.  ``verify`` re-expands the
right side exactly, never in floating point: a tower element already is an
integer vector over one denominator (``[n]`` over Q), so clearing a form or
a scalar takes an lcm and a scale.  Small expansions run in Python ints.
Large ones run in numpy int64 modulo primes just below 2^26 whose product
exceeds a certified bound H on every coefficient of the difference, so a
difference that vanishes modulo every prime vanishes exactly.  Either way a
True verdict proves the identity.  No construction in this module returns
an unverified certificate.

The constructions:

* ``two_square``: M = X*Y gives (1/4)(X+Y)^2 - (1/4)(X-Y)^2 (the imaginary
  unit of the underlying two-square identity folded into the scalar).
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
  attains classify's upper bound (see ``rank.RULES``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache
from itertools import chain, product as iproduct
from math import comb, factorial, lcm, prod
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


class PerfectSquareError(CertificateError):
    """two_square rejected a degenerate split (rank 1; use a trivial certificate)."""


def default_names(nvars: int) -> tuple:
    return tuple(f"x{i}" for i in range(nvars))


@dataclass
class Certificate:
    """A power-sum identity for a monomial in one or more distinct variables
    named as ``algebra.NAME_RE`` allows.  Immutable by convention;
    ``verified`` is a cache set by verify().  A summand's scalar may be given
    as a rational (int or ``Q``); it is stored as that element of the
    tower."""

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

    @property
    def form_degree(self) -> int:
        return self.target.degree // self.k


def verify(cert: Certificate) -> bool:
    """Exactly expand the summands and compare against the target.

    Malformed certificates (non-homogeneous or wrong-degree forms, mixed
    towers, arity mismatches) raise; a well-formed certificate whose
    expansion differs from the target returns False.  True means the
    identity is proven exactly.

    Each summand's form and scalar are brought to integer vectors (of length
    1 over Q) over their least common denominators D and D_s by scaling the
    elements' numerators, and the summands are brought to one common
    denominator.  Small expansions run in Python ints (``_integer_kernel``);
    from ``MODULAR_MIN_WORK`` on, over a tower of at most
    ``MODULAR_MAX_SIZE`` basis elements whose table column norm is at most
    ``_MAX_COLUMN_NORM``, the expansion runs in numpy int64
    modulo primes whose product exceeds a certified bound on every
    coefficient of the difference (``_modular_kernel``), so a zero residue
    there is a zero coefficient as well.  That kernel splits each form's t
    terms into two halves and sums the products of the halves' assignments
    over the summands before it applies the tower table, so each leaf of
    the expansion takes k powers, h - 1 and t - h - 1 half products
    (h = t // 2) and one cross product, whatever the number of summands.
    """
    args = _cleared(cert)
    ring, parts, k, _ = args
    if (ring.size <= MODULAR_MAX_SIZE and _expansion_work(ring, parts, k) >= MODULAR_MIN_WORK
            and ring.column_norm <= _MAX_COLUMN_NORM):
        ok = _modular_kernel(*args)
    else:
        ok = _integer_kernel(*args)
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


# The modular kernel takes an expansion from this ``_expansion_work`` on.
# Below it numpy's fixed cost per call can outweigh the Python-int kernel.
# Over the decompose sweep, the criterion-02 grid and product_linear(2..7)
# (2-CPU Xeon VM, Python 3.11, numpy 2.4), the largest expansion on which
# the Python-int kernel was faster has work 612 (the three-cube certificate
# for x0^4 x1 x2 and its transforms, tower size 6); on every certificate
# from 960 on, the modular kernel was faster.
MODULAR_MIN_WORK = 768
# The modular kernel's largest tower: its work and table grow as size^2.
MODULAR_MAX_SIZE = 45
PRIME_LIMIT = 1 << 26
# A tower product reduces once, after the table matmul: each output is a sum
# of products of two residues below p, weighted by table entries, so it stays
# below (p - 1)^2 * column_norm, which fits int64 up to this column norm
# (2048 for primes below 2^26).
_MAX_COLUMN_NORM = (2 ** 63 - 1) // (PRIME_LIMIT - 1) ** 2
# Size of the modular kernel's largest temporary arrays.
BLOCK_BYTES = 1 << 18


def _expansion_work(ring, parts, k: int) -> int:
    """Size estimate of an expansion: leaves * terms * size^2 summed over the
    summands, about the work of the tower products the Python-int kernel
    forms.  The modular kernel forms far fewer; this is the size that
    ``MODULAR_MIN_WORK`` is measured in."""
    return ring.size ** 2 * sum(
        comb(k + len(p[0]) - 1, k) * len(p[0]) for p in parts
    )


def _integer_kernel(ring, parts, k: int, target) -> bool:
    """Verdict of ``_integer_difference``: every coefficient is zero."""
    return all(v == ring.zero for v in _integer_difference(ring, parts, k, target).values())


def _integer_difference(ring, parts, k: int, target) -> dict:
    """The expansion minus the target, exactly, in Python ints.

    G^k is expanded multinomially over the tower's integer structure table
    (common denominator L), so every contribution of a summand carries the
    one denominator L^k * D^k * D_s and no gcd is taken.  Returns
    {monomial: integer vector} over the common denominator of the summands.
    """
    dens = [(ring.denominator * den) ** k * den_s for _, _, den, _, den_s in parts]
    common = lcm(*dens)
    plans: dict = {}
    total: dict = {}
    for (support, coeffs, _, s, _), den in zip(parts, dens):
        plan = plans.get(support)
        if plan is None:
            plan = plans[support] = _expansion_plan(support, k)
        monomials, leaves = plan
        s = ring.scale(s, common // den)
        for mono, v in zip(monomials, _expand(ring, leaves, len(monomials), coeffs, k)):
            v = ring.mul(s, v)
            prev = total.get(mono)
            total[mono] = v if prev is None else ring.add(prev, v)
    total[target] = ring.add(total.get(target, ring.zero), ring.scale(ring.one, -common))
    return total


def _expansion_plan(support: tuple, k: int):
    """The multinomial expansion of (sum_t c_t x^(e_t))^k for one support.

    Returns the distinct output monomials and one leaf per exponent
    assignment (b_t): the indices of the powers c_t^(b_t) in the flat table
    built by ``_expand``, the output monomial's index and the multinomial
    coefficient.  Summands with the same support share it.
    """
    nv = len(support[0])
    monomials: dict = {}
    leaves = []
    _, counts, multinomials = multinomial_table(len(support), k)
    for bs, multi in zip(counts.tolist(), multinomials):
        mono = tuple(sum(b * e[v] for b, e in zip(bs, support)) for v in range(nv))
        out = monomials.setdefault(mono, len(monomials))
        factors = tuple(t * (k + 1) + b for t, b in enumerate(bs) if b)
        leaves.append((factors, out, multi))
    return tuple(monomials), leaves


def _expand(ring, leaves, nout: int, coeffs, k: int) -> list:
    """Per output monomial, the sum of its leaves' multinomial * prod c_t^(b_t).

    Every leaf multiplies k unit factors, so all sums carry L^(k-1)."""
    mul, add, scale, product = ring.mul, ring.add, ring.scale, ring.product
    powers = []
    for c in coeffs:
        row = [None, c]
        for _ in range(k - 1):
            row.append(mul(row[-1], c))
        powers.extend(row)
    sums = [ring.zero] * nout
    for factors, out, multi in leaves:
        sums[out] = add(sums[out], scale(product([powers[i] for i in factors]), multi))
    return sums


def _modular_kernel(ring, parts, k: int, target) -> bool:
    """The expansion minus the target, modulo primes, in numpy int64.

    Summands are grouped by support.  The scalar enters as the zeroth power
    of the first term, ``pw[0] = s``, the others start at ``pw[0] = 1``, and
    ``pw[b] = mul(pw[b-1], c)``.  A leaf, one exponent assignment (b_u) of
    the t terms, is the product of its powers pw_u[b_u].  The terms split
    into halves [0, h) and [h, t), h = t // 2, and a leaf pairs a first-half
    assignment of degree a with a second-half one of degree k - a.  Every
    summand multiplies out each half's assignments of every degree; for
    each split a one matmul over the summands sums the outer products of
    the pairs, and the table, which is linear, turns each leaf's sum into
    the sum of its products (``_leaf_sums``).  So a leaf takes k powers,
    h - 1 and t - h - 1 half products and one cross product, k + t - 1 in
    all (a single term has no split: its leaf is pw[k]), and every
    contribution of a summand carries L^(k+t-1) * D^k * D_s, as in the
    leaf-by-leaf product.  Leaves are multiplied by their multinomials, and
    all are grouped by output monomial with one sort.

    ``_height_bound`` bounds every coefficient of the exact difference, and
    the primes' product exceeds it, so all residues are zero exactly when
    the exact difference is zero.  The tower must have at most
    ``MODULAR_MAX_SIZE`` basis elements and a table column norm of at most
    ``_MAX_COLUMN_NORM``, which keeps ``_mul_mod`` exact in int64.
    """
    n = ring.size
    if n > MODULAR_MAX_SIZE:
        raise ValueError(f"modular expansion needs a tower of size <= {MODULAR_MAX_SIZE}, not {n}")
    if ring.column_norm > _MAX_COLUMN_NORM:
        raise ValueError(f"modular expansion needs a table column norm <= {_MAX_COLUMN_NORM}, "
                         f"not {ring.column_norm}")
    dens, common = _modular_denominators(ring, parts, k)
    primes = _primes_above(_height_bound(ring, parts, k))
    m = len(primes)
    moduli = np.array(primes, dtype=np.int64).reshape(m, 1)
    groups: dict = {}  # support -> each summand's coefficients, then its scalar
    for (support, coeffs, _, s, _), den in zip(parts, dens):
        flat = groups.setdefault(support, [])
        for c in coeffs:
            flat += c
        flat += ring.scale(s, common // den)
    monomials, sums, places, offset = [], [], [], 0
    for support, flat in groups.items():
        t = len(support)
        values = _residues(flat, moduli).reshape(m, -1, t + 1, n)
        leaves = _leaf_sums(values, k, ring.table, moduli)
        leaves *= _multinomial_residues(t, k, m)
        places.append(_split_plan(t, k).position + offset)
        offset += leaves.shape[2]
        sums.append(_reduce(leaves, moduli))
        monomials.append(multinomial_table(t, k)[1]
                         @ np.array(support, dtype=np.int64).reshape(t, len(target)))
    if not sums:
        return False
    mono = np.concatenate(monomials)
    order = np.lexsort(mono.T if mono.shape[1] else np.zeros((1, len(mono)), np.int64))
    mono = mono[order]
    starts = np.flatnonzero(np.concatenate(([True], (mono[1:] != mono[:-1]).any(axis=1))))
    leaves = np.concatenate(sums, axis=2)[:, :, np.concatenate(places)[order]]
    total = _reduce(np.add.reduceat(leaves, starts, axis=2), moduli)
    hit = np.flatnonzero((mono[starts] == np.array(target)).all(axis=1))
    if not len(hit):
        return False
    total[:, 0, hit[0]] -= _residues([common], moduli)[:, 0]
    return not total.any()


# The cross step sums, per entry, one product of two residues per summand:
# each is below (p - 1)^2 < 2^52, so at most this many of them, added to one
# reduced value below p, stay below 2^63 before the sum is reduced.  The
# table then works on reduced entries, below p: its sums stay below
# p * column_norm <= 2^37.
_MAX_TERMS = 2048


def _leaf_sums(values, k: int, table, moduli):
    """Per leaf, sum_j of summand j's product of powers, reduced:
    (primes, size, leaves), leaves in ``_split_plan`` order.

    ``values`` holds each summand's t coefficient vectors and its scalar,
    (primes, summands, t + 1, size).  Leaves go in chunks of whole splits,
    and summands in blocks of at most ``_MAX_TERMS``, so that the pre-table
    sums of a chunk, one size x size outer product per leaf, and a block's
    powers and half products stay near ``BLOCK_BYTES``.  A chunk's sums
    accumulate over the blocks and are reduced after each one, so the table
    works on reduced entries, once per leaf.
    """
    m, nmembers, t, n = values.shape
    t -= 1
    if t == 1:  # no split: the one leaf is pw[k]
        total = np.zeros((m, n, 1), dtype=np.int64)
        block = _block(m, n, k, t, 1)
        for j in range(0, nmembers, block):
            pw = _powers(values[:, j:j + block], k, table, moduli)
            total += pw[:, :, k, 0].sum(axis=2, keepdims=True)
            _reduce(total, moduli)
        return total
    plan = _split_plan(t, k)
    out = np.empty((m, n, len(plan.position)), dtype=np.int64)
    for chunk in _leaf_chunks(plan.splits, BLOCK_BYTES // (8 * m * n * n)):
        (f0, _, _, s1, l0, _), (_, f1, s0, _, _, l1) = chunk[0], chunk[-1]
        acc = np.empty((m, n, n, l1 - l0), dtype=np.int64)
        pairs = [(acc[..., c0 - l0:c1 - l0].reshape(m, n, n, a1 - a0, b1 - b0),
                  slice(a0 - f0, a1 - f0), slice(b0 - s0, b1 - s0))
                 for a0, a1, b0, b1, c0, c1 in chunk]
        block = _block(m, n, k, t, n * max(f1 - f0, s1 - s0))
        for j in range(0, nmembers, block):
            pw = _powers(values[:, j:j + block], k, table, moduli).reshape(m, n, (k + 1) * t, -1)
            first = _half_products(pw, plan.first[:, f0:f1], table, moduli)[:, :, None]
            second = _half_products(pw, plan.second[:, s0:s1], table, moduli)
            second = second.swapaxes(2, 3)[:, None]
            for view, rows, cols in pairs:
                if j:
                    view += first[..., rows, :] @ second[..., cols]
                else:
                    np.matmul(first[..., rows, :], second[..., cols], out=view)
            _reduce(acc, moduli)
        out[..., l0:l1] = (acc.reshape(m, n, -1) if n == 1  # Q's table is [[1]]
                           else _table_mod(acc.reshape(m, n * n, -1), table, moduli))
    return out


def _block(m: int, n: int, k: int, t: int, rows: int) -> int:
    """Summands per block: the largest temporaries, the powers and a half's
    outer products (``rows`` values per summand), stay near ``BLOCK_BYTES``."""
    return min(_MAX_TERMS, max(1, BLOCK_BYTES // (8 * m * n * max((k + 1) * t, rows))))


def _leaf_chunks(splits, budget: int):
    """Consecutive splits, grouped so that each group has at most ``budget``
    leaves, or is one split.  Consecutive splits read contiguous rows of
    both halves."""
    chunk, size = [], 0
    for split in splits:
        leaves = split[5] - split[4]
        if chunk and size + leaves > budget:
            yield chunk
            chunk, size = [], 0
        chunk.append(split)
        size += leaves
    yield chunk


def _powers(values, k: int, table, moduli):
    """pw[b] = mul(pw[b-1], c) for b = 1..k from pw[0] = s for the first
    term and 1 for the others: (primes, size, k + 1, terms, summands) from
    ``values`` of shape (primes, summands, terms + 1, size)."""
    v = np.ascontiguousarray(values.transpose(0, 3, 2, 1))
    m, n, t, nmembers = v.shape
    c = v[:, :, :t - 1]
    pw = np.zeros((m, n, k + 1, t - 1, nmembers), dtype=np.int64)
    pw[:, 0, 0] = 1
    pw[:, :, 0, 0] = v[:, :, t - 1]
    for b in range(1, k + 1):
        pw[:, :, b] = _mul_mod(pw[:, :, b - 1], c, table, moduli)
    return pw


def _half_products(pw, index, table, moduli):
    """Each half assignment's product of powers, (primes, size, rows,
    summands): ``index`` holds, per term of the half, the flat (power, term)
    position of its power in every row, and takes one product less than
    the half has terms."""
    out = np.take(pw, index[0], axis=2)
    for row in index[1:]:
        out = _mul_mod(out, np.take(pw, row, axis=2), table, moduli)
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


# Plans and multinomial residues kept, one per (t, k) and (t, k, primes).
PLAN_CACHE_SIZE = 64


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
def _multinomial_residues(t: int, k: int, m: int) -> np.ndarray:
    """The multinomials of the leaves of ``_leaf_sums`` mod each of the m
    largest primes, (m, 1, leaves)."""
    residues = _residues(multinomial_table(t, k)[2],
                         np.array(_primes(m), dtype=np.int64).reshape(m, 1))
    out = np.empty_like(residues)
    out[:, _split_plan(t, k).position] = residues
    out = out.reshape(m, 1, -1)
    out.flags.writeable = False
    return out


def _mul_mod(x, y, table, moduli):
    """``mul`` on equal-shaped stacks of residue vectors (primes, size, ...)
    mod each prime: the outer product, unreduced (entries below p^2 < 2^52),
    times the int64 table shared by all primes, reduced once.  Exact while
    (p - 1)^2 times the table's column norm stays below 2^63."""
    m, n = x.shape[:2]
    if n == 1:  # the empty tower Q, whose table is [[1]]
        return _reduce(x * y, moduli)
    outer = x[:, :, None] * y[:, None]
    return _table_mod(outer.reshape(m, n * n, -1), table, moduli).reshape(x.shape)


def _table_mod(outer, table, moduli):
    """Basis-pair coefficients (primes, size^2, rows) times the table,
    reduced mod each prime, (primes, size, rows): every tower product in
    the modular kernel goes through here."""
    return _reduce(table.T @ outer, moduli)


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


def _modular_denominators(ring, parts, k: int):
    """Each summand's denominator L^(k+t-1) * D^k * D_s in the modular
    kernel, and their least common multiple."""
    dens = [ring.denominator ** (k + len(support) - 1) * den ** k * den_s
            for support, _, den, _, den_s in parts]
    return dens, lcm(*dens)


def _height_bound(ring, parts, k: int) -> int:
    """H >= |every coefficient| of the modular kernel's exact difference.

    In the 1-norm, ``mul`` grows a product by at most rho = ``ring.row_norm``,
    and a leaf of a summand with t terms takes k + t - 1 products: k powers,
    h - 1 and t - h - 1 half products and one cross product (h = t // 2).
    The cross step sums those products over the summands before the table
    applies, which by linearity changes no exact value, so

        H = common + sum_j (common / den_j) |s_j| rho^(k+t_j-1) (sum_u |c_ju|)^k
    """
    dens, common = _modular_denominators(ring, parts, k)
    rho = ring.row_norm
    return common + sum(
        common // den * sum(map(abs, s)) * rho ** (k + len(support) - 1)
        * sum(map(abs, chain.from_iterable(coeffs))) ** k
        for (support, coeffs, _, s, _), den in zip(parts, dens)
    )


def _primes_above(height: int) -> tuple:
    """The fewest of the largest primes below 2^26 whose product exceeds height."""
    count = max(1, -(-height.bit_length() // 26))
    while prod(_primes(count)) <= height:
        count += 1
    return _primes(count)


@cache
def _primes(count: int) -> tuple:
    """The `count` largest primes below ``PRIME_LIMIT``, descending."""
    out = []
    n = PRIME_LIMIT - 1
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n -= 2
    return tuple(out)


def _is_prime(n: int) -> bool:
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


def _must_verify(cert: Certificate) -> Certificate:
    if not verify(cert):
        raise CertificateError("internal error: constructed certificate failed verification")
    return cert


def check_at_point(cert: Certificate, point) -> bool:
    """Exact evaluation cross-check at a rational point (stays in the tower)."""
    total = cert.tower.zero()
    for scalar, form in cert.summands:
        total = total + scalar * (form.eval_exact(point) ** cert.k)
    target_val = Q(1)
    for i, e in enumerate(cert.target.exponents):
        if e:
            target_val *= Q(point[i]) ** e
    return total == cert.tower.scalar(target_val)


# ---------------------------------------------------------------------------
# Elementary constructions


def trivial_cert(monomial: Monomial, k: int) -> Certificate:
    """M = (N)^k for a k-th power M."""
    root = monomial.kth_root(k)
    cert = Certificate(
        variables=default_names(monomial.nvars),
        k=k,
        target=monomial,
        tower=EMPTY_TOWER,
        summands=((EMPTY_TOWER.one(), root.to_polynomial(EMPTY_TOWER)),),
        provenance=("pure-power",),
    )
    return _must_verify(cert)


def greedy_split(monomial: Monomial, parts: int):
    """Left-fill the exponent units into `parts` equal-degree monomials."""
    total = monomial.degree
    if parts < 1 or total % parts != 0:
        raise ValueError("degree must split evenly")
    each = total // parts
    if each == 0:
        raise ValueError("cannot split a constant")
    buckets = [[0] * monomial.nvars for _ in range(parts)]
    b = fill = 0
    for i, e in enumerate(monomial.exponents):
        for _ in range(e):
            if fill == each:
                b += 1
                fill = 0
            buckets[b][i] += 1
            fill += 1
    return [Monomial(tuple(bucket)) for bucket in buckets]


def two_square(monomial: Monomial, split=None) -> Certificate:
    """M = X*Y as (1/4)(X+Y)^2 - (1/4)(X-Y)^2.

    The default split is the greedy left-fill; a split with X == Y is the
    degenerate perfect-square case and is rejected.
    """
    if monomial.degree % 2 != 0 or monomial.degree == 0:
        raise CertificateError("two_square needs a nonconstant even-degree monomial")
    if split is None:
        if all(e % 2 == 0 for e in monomial.exponents):
            raise PerfectSquareError(
                "perfect square has rank 1; use the trivial certificate"
            )
        x_part, y_part = greedy_split(monomial, 2)
    else:
        x_part, y_part = split
    if x_part * y_part != monomial:
        raise CertificateError("split does not multiply back to the monomial")
    if x_part.degree != y_part.degree:
        raise CertificateError("split parts must have equal degree")
    if x_part == y_part:
        raise PerfectSquareError(
            "perfect square has rank 1; use the trivial certificate"
        )
    tower = EMPTY_TOWER.extend("i", (Q(1), Q(0), Q(1)))
    px = x_part.to_polynomial(tower)
    py = y_part.to_polynomial(tower)
    cert = Certificate(
        variables=default_names(monomial.nvars),
        k=2,
        target=monomial,
        tower=tower,
        summands=(
            (tower.scalar(Q(1, 4)), px + py),
            (tower.scalar(Q(-1, 4)), px - py),
        ),
        provenance=(
            f"two-square split {x_part.text()} | {y_part.text()}",
        ),
    )
    return _must_verify(cert)


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

    Monomial images of one common degree l >= 1 turn a certificate for M into
    one for the substituted monomial; forms pick up degree factor l and the
    scalars are untouched.
    """
    images = list(images)
    if len(images) != len(cert.variables):
        raise CertificateError("one image per certificate variable required")
    if not images:
        raise CertificateError("empty image list")
    level = images[0].degree
    out_nv = images[0].nvars
    if level < 1:
        raise CertificateError("images must be nonconstant monomials")
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

"""Construction and exact verification of power-sum certificates.

A certificate records a claimed identity

    M = sum_j  c_j * (G_j)^k

with M a monomial of degree k*d, the G_j homogeneous degree-d forms and the
c_j scalars, everything over one extension tower.  ``verify`` re-expands the
right side exactly, never in floating point: denominators are cleared once
and tower elements become integer vectors, ``[n]`` over Q.  Small expansions
run in Python ints.  Large ones run in numpy int64 modulo primes just below
2^26 whose product exceeds a certified bound H on every coefficient of the
difference, so a difference that vanishes modulo every prime vanishes
exactly.  Either way a True verdict proves the identity.
No construction in this module returns an unverified certificate.

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
from functools import cache
from itertools import product as iproduct
from math import comb, factorial, lcm, prod
from operator import add

import numpy as np

from .algebra import EMPTY_TOWER, roots_of_unity_tower, unity_root
from .polynomials import Monomial, Polynomial, multinomial_table
from .rationals import Q


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
    """A power-sum identity for a monomial.  Immutable by convention;
    ``verified`` is a cache set by verify()."""

    variables: tuple
    k: int
    target: Monomial
    tower: ExtensionTower
    summands: tuple  # ((scalar: RingElement, form: Polynomial), ...)
    provenance: tuple = ()
    verified: bool = False

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

    Each summand's form and scalar are cleared to integer vectors (of length
    1 over Q) over their least common denominators D and D_s, and the
    summands are brought to one common denominator.  Small expansions run in
    Python ints (``_integer_kernel``); from ``MODULAR_MIN_WORK`` on, over a
    tower of at most ``MODULAR_MAX_SIZE`` basis elements whose table column
    norm is at most ``_MAX_COLUMN_NORM``, the expansion runs in numpy int64
    modulo primes whose product exceeds a certified bound on every
    coefficient of the difference (``_modular_kernel``), so a zero residue
    there is a zero coefficient as well.
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
        if form.is_zero() or not form.is_homogeneous() or form.degree() != d:
            raise MalformedCertificateError(
                f"forms must be nonzero homogeneous of degree {d}"
            )
        sc = cert.tower._coerce(scalar)
        support = tuple(sorted(form.terms))
        coeffs, den = ring.clear([form.terms[e] for e in support])
        (s,), den_s = ring.clear([sc])
        parts.append((support, coeffs, den, s, den_s))
    return ring, parts, k, cert.target.exponents


# The modular kernel takes an expansion from this ``_expansion_work`` on.
# Below it numpy's fixed cost per call outweighs the Python-int kernel; at
# and above it the modular kernel was the faster one on every certificate of
# the decompose sweep, the criterion-02 grid and product_linear(2..7)
# (2-CPU Xeon VM, Python 3.11).
MODULAR_MIN_WORK = 1024
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
    summands, about the tower products the Python-int kernel forms."""
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

    Summands are grouped by support and expanded in blocks that keep every
    temporary array near ``BLOCK_BYTES``.  The scalar enters as the zeroth
    power of the first term, ``pw[0] = s``, the others start at
    ``pw[0] = 1``, and ``pw[b] = mul(pw[b-1], c)``; a leaf takes t - 1
    products of its t powers, so with t terms every contribution of a summand
    carries L^(k+t-1) * D^k * D_s.  Leaves are multiplied by their
    multinomials, and all are grouped by output monomial with one sort.

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
    pcol = np.array(primes, dtype=np.int64).reshape(m, 1, 1)
    table = ring.table
    groups: dict = {}
    for (support, coeffs, _, s, _), den in zip(parts, dens):
        groups.setdefault(support, []).append(
            list(coeffs) + [ring.scale(s, common // den)]
        )
    monomials, sums = [], []
    for support, members in groups.items():
        t = len(support)
        _, assign, multinomials = multinomial_table(t, k)
        nleaves = len(multinomials)
        flat = [a for vectors in members for v in vectors for a in v]
        values = _residues(flat, primes).reshape(m, len(members), t + 1, n)
        cap = max(1, BLOCK_BYTES // (8 * m * n * n))
        block, chunk = (max(1, cap // nleaves), nleaves) if nleaves <= cap else (1, cap)
        acc = np.zeros((m, nleaves, n), dtype=np.int64)
        for j in range(0, len(members), block):
            c = values[:, j:j + block, :t]
            pw = np.zeros(c.shape[:3] + (k + 1, n), dtype=np.int64)
            pw[:, :, 1:, 0, 0] = 1
            pw[:, :, 0, 0] = values[:, j:j + block, t]
            for b in range(1, k + 1):
                pw[:, :, :, b] = _mul_mod(pw[:, :, :, b - 1], c, table, pcol)
            for lo in range(0, nleaves, chunk):
                leaf = assign[lo:lo + chunk]
                val = np.take(pw[:, :, 0], leaf[:, 0], axis=2)
                for u in range(1, t):
                    val = _mul_mod(val, np.take(pw[:, :, u], leaf[:, u], axis=2), table, pcol)
                acc[:, lo:lo + chunk] += val.sum(axis=1)
                acc[:, lo:lo + chunk] %= pcol
        multi = _residues(multinomials, primes).reshape(m, nleaves, 1)
        sums.append(acc * multi % pcol)
        monomials.append(assign @ np.array(support, dtype=np.int64).reshape(t, len(target)))
    if not sums:
        return False
    mono = np.concatenate(monomials)
    order = np.lexsort(mono.T if mono.shape[1] else np.zeros((1, len(mono)), np.int64))
    mono = mono[order]
    starts = np.flatnonzero(np.concatenate(([True], (mono[1:] != mono[:-1]).any(axis=1))))
    total = np.add.reduceat(np.concatenate(sums, axis=1)[:, order], starts, axis=1) % pcol
    hit = np.flatnonzero((mono[starts] == np.array(target)).all(axis=1))
    if not len(hit):
        return False
    total[:, hit[0], 0] -= _residues([common], primes)[:, 0]
    return not total.any()


def _mul_mod(x, y, table, pcol):
    """``mul`` on equal-shaped stacks of residue vectors (primes, ..., size)
    mod each prime: the outer product, unreduced (entries below p^2 < 2^52),
    times the int64 table shared by all primes, reduced once.  Exact while
    (p - 1)^2 times the table's column norm stays below 2^63."""
    m, n = x.shape[0], x.shape[-1]
    if n == 1:  # the empty tower Q, whose table is [[1]]
        return (x.reshape(m, -1, 1) * y.reshape(m, -1, 1) % pcol).reshape(x.shape)
    outer = (x.reshape(m, -1, n, 1) * y.reshape(m, -1, 1, n)).reshape(m, -1, n * n)
    return (outer @ table % pcol).reshape(x.shape)


def _residues(ints, primes) -> np.ndarray:
    """Python ints reduced mod each prime: int64 of shape (primes, len(ints))."""
    flat = np.array(ints, dtype=object)
    return np.stack([(flat % p).astype(np.int64) for p in primes])


def _modular_denominators(ring, parts, k: int):
    """Each summand's denominator L^(k+t-1) * D^k * D_s in the modular
    kernel, and their least common multiple."""
    dens = [ring.denominator ** (k + len(support) - 1) * den ** k * den_s
            for support, _, den, _, den_s in parts]
    return dens, lcm(*dens)


def _height_bound(ring, parts, k: int) -> int:
    """H >= |every coefficient| of the modular kernel's exact difference.

    In the 1-norm, ``mul`` grows a product by at most rho = ``ring.row_norm``,
    and the leaves of a summand with t terms take k + t - 1 products, so

        H = common + sum_j (common / den_j) |s_j| rho^(k+t_j-1) (sum_u |c_ju|)^k
    """
    dens, common = _modular_denominators(ring, parts, k)
    rho = ring.row_norm

    def norm(x) -> int:
        return sum(abs(a) for a in x)

    return common + sum(
        common // den * norm(s) * rho ** (k + len(support) - 1)
        * sum(norm(c) for c in coeffs) ** k
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
        total = total + cert.tower._coerce(scalar) * (form.eval_exact(point) ** cert.k)
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
    powers = {m: [unity_root(tower, m) ** j for j in range(m)] for m in set(ms.values())}
    c = factorial(degree) // prod(map(factorial, exps)) * prod(ms.values())
    inv_c = tower.scalar(Q(1, c))
    one = tower.one()
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

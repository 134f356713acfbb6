"""Construction and exact verification of power-sum certificates.

A certificate records a claimed identity

    M = sum_j  c_j * (G_j)^k

with M a monomial of degree k*d, the G_j homogeneous degree-d forms and the
c_j scalars, everything over one extension tower.  ``verify`` re-expands the
right side in exact Python integers, never floating point: denominators are
cleared once and tower elements become integer vectors (plain ints over Q).
No construction in this module returns an unverified certificate.

The constructions:

* ``two_square``: M = X*Y gives (1/4)(X+Y)^2 - (1/4)(X-Y)^2 (the imaginary
  unit of the underlying two-square identity folded into the scalar).
* ``product_linear``: k! 2^(k-1) X1...Xk = sum over sign vectors
  e in {1} x {+-1}^(k-1) of (prod e_i) (X1 + e_2 X2 + ... + e_k Xk)^k.
* ``monomial_linear_decomp``: root-of-unity averaging.  With a_min at
  position i0 and m_i = a_i + 1 elsewhere,

      x^a = (1/c) sum_{j} prod_i w_i^(-j_i a_i) (x_{i0} + sum_i w_i^{j_i} x_i)^D

  where w_i is a primitive m_i-th root of unity, D = deg x^a and
  c = multinomial(D; a) * prod m_i.  Exactly prod m_i summands, which is the
  monomial's rank in powers of linear forms.
* ``special_x04x1x2``: x0^4 x1 x2 as a sum of three cubes over the tower
  u^2 = 1/6, v^3 = -2.
* transformers ``group_substitute`` / ``specialize_cert`` / ``multiply_cert``
  that push certificates through monomial substitution, variable
  identification, and multiplication by N (N^k times a certificate for M is
  a certificate for N^k M).
* ``decompose``: the full pipeline, which builds with the rank rule that
  attains classify's upper bound (see ``rank.RULES``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import factorial, lcm, prod

from .algebra import EMPTY_TOWER, roots_of_unity_tower, unity_root
from .polynomials import Monomial, Polynomial
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

    def text(self) -> str:
        names = self.variables
        lines = [
            f"target {self.target.text(names)} as a sum of {len(self.summands)} "
            f"{self.k}-th powers of degree-{self.form_degree} forms"
        ]
        for gen in self.tower.generators:
            lines.append(f"  generator {gen.name}: degree {gen.degree}")
        for scalar, form in self.summands:
            coef = scalar.text()
            if len(scalar.terms) > 1:
                coef = f"({coef})"
            lines.append(f"  {coef} * ({form.text(names)})^{self.k}")
        return "\n".join(lines)


def verify(cert: Certificate) -> bool:
    """Exactly expand the summands and compare against the target.

    Malformed certificates (non-homogeneous or wrong-degree forms, mixed
    towers, arity mismatches) raise; a well-formed certificate whose
    expansion differs from the target returns False.

    The expansion runs in Python ints.  Each summand's form and scalar are
    cleared to integer vectors over their least common denominators D and
    D_s, and G^k is expanded multinomially over the tower's integer
    structure table (common denominator L), so every contribution of the
    summand carries the one denominator L^k * D^k * D_s and no gcd is taken.
    Summands are brought to a common denominator and the sum is compared
    with the target scaled by it.
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
        parts.append((support, coeffs, s, (ring.denominator * den) ** k * den_s))
    common = lcm(*(part[3] for part in parts))
    plans: dict = {}
    total: dict = {}
    for support, coeffs, s, den in parts:
        plan = plans.get(support)
        if plan is None:
            plan = plans[support] = _expansion_plan(support, k)
        monomials, leaves = plan
        s = ring.scale(s, common // den)
        for mono, v in zip(monomials, _expand(ring, leaves, len(monomials), coeffs, k)):
            v = ring.mul(s, v)
            prev = total.get(mono)
            total[mono] = v if prev is None else ring.add(prev, v)
    lead = total.pop(cert.target.exponents, ring.zero)
    ok = lead == ring.scale(ring.one, common) and all(v == ring.zero for v in total.values())
    cert.verified = ok
    return ok


def _assignments(n: int, parts: int):
    """Every tuple of `parts` non-negative ints summing to n."""
    if parts == 1:
        yield (n,)
        return
    for b in range(n, -1, -1):
        for rest in _assignments(n - b, parts - 1):
            yield (b,) + rest


def _expansion_plan(support: tuple, k: int):
    """The multinomial expansion of (sum_t c_t x^(e_t))^k for one support.

    Returns the distinct output monomials and one leaf per exponent
    assignment (b_t): the indices of the powers c_t^(b_t) in the flat table
    built by ``_expand``, the output monomial's index and the multinomial
    coefficient k! / prod b_t!.  Summands with the same support share it.
    """
    nv = len(support[0])
    monomials: dict = {}
    leaves = []
    for bs in _assignments(k, len(support)):
        mono = tuple(sum(b * e[v] for b, e in zip(bs, support)) for v in range(nv))
        out = monomials.setdefault(mono, len(monomials))
        factors = tuple(t * (k + 1) + b for t, b in enumerate(bs) if b)
        leaves.append((factors, out, _multinomial(k, bs)))
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
    """x0*...*x(k-1) as 2^(k-1) k-th powers of signed linear forms."""
    if k < 2:
        raise CertificateError("k must be >= 2")
    tower = EMPTY_TOWER
    nv = k
    c = factorial(k) * 2 ** (k - 1)
    variables = [Polynomial.variable(tower, nv, i) for i in range(nv)]
    summands = []
    for eps in iproduct((1, -1), repeat=k - 1):
        sign = prod(eps)
        form = variables[0]
        for i, e in enumerate(eps, start=1):
            form = form + (variables[i] if e == 1 else -variables[i])
        summands.append((tower.scalar(Q(sign, c)), form))
    cert = Certificate(
        variables=default_names(nv),
        k=k,
        target=Monomial((1,) * k),
        tower=tower,
        summands=tuple(summands),
        provenance=(f"alternating-sign product identity, k={k}",),
    )
    return _must_verify(cert)


def _multinomial(total: int, parts) -> int:
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


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
    zeta = {m: unity_root(tower, m) for m in set(ms.values())}
    c = _multinomial(degree, exps) * prod(ms.values())
    inv_c = Q(1, c)
    variables = [Polynomial.variable(tower, nv, i) for i in range(nv)]
    summands = []
    for js in iproduct(*[range(ms[i]) for i in others]):
        weight = tower.one()
        form = variables[i0]
        for i, j in zip(others, js):
            m = ms[i]
            weight = weight * zeta[m] ** ((-j * exps[i]) % m)
            form = form + variables[i] * zeta[m] ** (j % m)
        summands.append((weight * inv_c, form))
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
    img_polys = {i: img.to_polynomial(cert.tower) for i, img in enumerate(images)}
    target_exps = [0] * out_nv
    for i, e in enumerate(cert.target.exponents):
        if e:
            for j, f in enumerate(images[i].exponents):
                target_exps[j] += e * f
    new_summands = tuple(
        (scalar, form.substitute(img_polys)) for scalar, form in cert.summands
    )
    out = Certificate(
        variables=default_names(out_nv),
        k=cert.k,
        target=Monomial(tuple(target_exps)),
        tower=cert.tower,
        summands=new_summands,
        provenance=cert.provenance
        + (f"group-substitute {', '.join(m.text() for m in images)}",),
    )
    return _must_verify(out)


def specialize_cert(cert: Certificate, identifications: dict) -> Certificate:
    """Identify variables (src -> dst) throughout the certificate."""
    nv = len(cert.variables)
    exps = [0] * nv
    for i, e in enumerate(cert.target.exponents):
        exps[identifications.get(i, i)] += e
    target = Monomial(tuple(exps))
    new_summands = tuple(
        (scalar, form.specialize(identifications)) for scalar, form in cert.summands
    )
    out = Certificate(
        variables=cert.variables,
        k=cert.k,
        target=target,
        tower=cert.tower,
        summands=new_summands,
        provenance=cert.provenance
        + (f"specialize {sorted(identifications.items())}",),
    )
    return _must_verify(out)


def multiply_cert(cert: Certificate, n: Monomial) -> Certificate:
    """Turn a certificate for M into one for N^k * M (forms gain a factor N)."""
    if n.nvars != len(cert.variables):
        raise CertificateError("multiplier arity differs from certificate")
    if n.is_one():
        return cert
    n_poly = n.to_polynomial(cert.tower)
    new_summands = tuple(
        (scalar, form * n_poly) for scalar, form in cert.summands
    )
    out = Certificate(
        variables=cert.variables,
        k=cert.k,
        target=cert.target * (n ** cert.k),
        tower=cert.tower,
        summands=new_summands,
        provenance=cert.provenance + (f"multiply by {n.text()}",),
    )
    return _must_verify(out)


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

"""``verify``'s modular kernel against independent references.

``_modular_kernel`` expands in numpy int64 modulo primes at which the tower
splits, whose product exceeds ``_height_bound``; a tower without split
primes goes to ``_expanded``, the expansion in the tower's own exact
``Polynomial`` arithmetic.  The modular kernel must agree with that
fallback and with the reference checker ``tests/refcheck.py`` on the sweep
certificates that small expansions once took elsewhere, on the golden files
and on a seeded single-digit corruption of each, and the height bound must
dominate every coefficient of the exact difference of each corruption.  At
a split prime, evaluation at the tower's root tuples must map ``mul(x, y)``,
which is L*x*y, to L times the pointwise product, through an invertible
evaluation matrix; a tower with a repeated root ends its prime search early
and goes to the fallback.  The modular kernel splits each support's terms
into two halves and sums the products of their assignments over the
summands, so a leaf takes one cross product; its edge cases (one term, odd
term counts, mixed supports, a support group too large for one int64
accumulation) and its product count are pinned here.  The sympy oracle
runs the kernel and the fallback too (``tests/test_verify_oracle.py``).
"""

import gc
import random
import tracemalloc
import weakref
from math import comb, prod
from pathlib import Path

import numpy as np
import pytest

from kwaring import algebra, decomp
from kwaring.algebra import (EMPTY_TOWER, PRIME_LIMIT, TOWER_CACHE_SIZE, _prime, cyclotomic_poly,
                             is_prime, roots_of_unity_tower)
from kwaring.certfile import parse, serialize
from kwaring.decomp import (
    Certificate,
    _cleared,
    _expanded,
    _modular_kernel,
    _split_plan,
    decompose,
    monomial_linear_decomp,
    product_linear,
    verify,
)
from kwaring.polynomials import Monomial, Polynomial, multinomial_table
from kwaring.rank import KInstance
from kwaring.rationals import Q

import refcheck
from test_sweep import sweep
from test_verify_oracle import (
    TABLE_TOWERS,
    _nested_cubic_tower,
    _nested_tower,
    _sqrt_tower,
    _two_sqrt_tower,
    assert_height_bounds,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def corrupted(text: str, rng) -> str:
    """Change one digit of a scalar or term coefficient so that the text
    still parses and stays canonical."""
    lines = text.split("\n")
    spots = []
    for i, line in enumerate(lines):
        if line.startswith(("scalar: ", "term: ")):
            start = line.index(" :: ") if line.startswith("term: ") else 0
            spots += [(i, j) for j in range(start, len(line)) if line[j].isdigit()
                      and line.rfind("(", 0, j) > line.rfind(")", 0, j)]
    while True:
        i, j = rng.choice(spots)
        new = str((int(lines[i][j]) + rng.randrange(1, 10)) % 10)
        candidate = lines[:]
        candidate[i] = lines[i][:j] + new + lines[i][j + 1:]
        candidate = "\n".join(candidate)
        try:
            if serialize(parse(candidate)) == candidate:
                return candidate
        except ValueError:
            pass


def spy_on_the_fallback(monkeypatch) -> list:
    """Record every certificate that ``verify`` sends to ``_expanded`` in
    the returned list."""
    calls = []
    expanded = decomp._expanded

    def counted(cert):
        calls.append(cert)
        return expanded(cert)

    monkeypatch.setattr(decomp, "_expanded", counted)
    return calls


def assert_agree(text: str, expected: bool):
    """The modular kernel, the fallback and the reference checker all give
    ``expected`` on a certificate file; a false one's exact difference is
    within the height bound."""
    cert = parse(text)
    assert _modular_kernel(*_cleared(cert)) is expected
    assert _expanded(cert) is expected
    assert refcheck.check(text) is expected
    if not expected:
        assert_height_bounds(cert)


def _expansion_work(cert) -> int:
    """leaves * terms * size^2 summed over the summands: below 768, the
    certificates that a Python-int kernel took before the modular kernel
    took every size."""
    ring, parts, k, _ = _cleared(cert)
    return ring.size ** 2 * sum(comb(k + len(p[0]) - 1, k) * len(p[0]) for p in parts)


def test_kernels_agree_on_the_sweep():
    """The 103 sweep certificates of expansion work below 768 and a seeded
    single-digit corruption of each."""
    rng = random.Random(103)
    certs = [decompose(KInstance(Monomial(exps), k)) for k, exps in sweep()]
    small = [cert for cert in certs if _expansion_work(cert) < 768]
    assert len(small) == 103
    for cert in small:
        text = serialize(cert)
        assert_agree(text, True)
        assert_agree(corrupted(text, rng), False)


def test_kernels_agree_on_golden_files_and_their_corruptions():
    rng = random.Random(5)
    paths = sorted(GOLDEN_DIR.glob("*.cert"))
    assert len(paths) == 16
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert_agree(text, True)
        assert_agree(corrupted(text, rng), False)


def test_the_forced_fallback_accepts_golden_files_and_rejects_corruptions(monkeypatch):
    """With every tower reporting no split primes, ``verify`` takes the
    fallback on each golden file and on a seeded corruption of each."""
    rng = random.Random(16)
    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN_DIR.glob("*.cert"))]
    bad = [parse(corrupted(text, rng)) for text in texts]
    monkeypatch.setattr(algebra.IntegerStructure, "split_primes", lambda self, count: None)
    calls = spy_on_the_fallback(monkeypatch)
    for text, wrong in zip(texts, bad):
        assert verify(parse(text)) is True
        assert verify(wrong) is False
    assert len(calls) == 2 * len(texts) == 32


def _cert(tower, nv, k, target, summands):
    return Certificate(tuple(f"x{i}" for i in range(nv)), k, Monomial(target), tower,
                       tuple(summands))


def _both(cert):
    return _expanded(cert), _modular_kernel(*_cleared(cert))


def test_modular_edge_cases():
    t = EMPTY_TOWER
    x0, x1 = (Polynomial.variable(t, 2, i) for i in range(2))
    one = t.one()
    assert _both(_cert(t, 2, 2, (1, 1), ())) == (False, False)
    # t = 1: x0^3 = (x0)^3, and a false one
    assert _both(_cert(t, 2, 3, (3, 0), [(one, x0)])) == (True, True)
    assert _both(_cert(t, 2, 3, (3, 0), [(t.scalar(2), x0)])) == (False, False)
    # mixed support lengths: x0 x1 = (1/2)(x0 + x1)^2 - (1/2) x0^2 - (1/2) x1^2
    mixed = [(t.scalar(Q(1, 2)), x0 + x1), (t.scalar(Q(-1, 2)), x0),
             (t.scalar(Q(-1, 2)), x1)]
    assert _both(_cert(t, 2, 2, (1, 1), mixed)) == (True, True)
    assert _both(_cert(t, 2, 2, (1, 1), mixed[:2])) == (False, False)
    # the target appears in no expansion
    assert _both(_cert(t, 2, 2, (1, 1), [(one, x0), (-one, x1)])) == (False, False)
    # over Q(i), size 2: y0^2 = (1/2)(y0 + i y1)^2 + (1/2)(y0 - i y1)^2 + y1^2
    qi = EMPTY_TOWER.extend("i", (Q(1), Q(0), Q(1)))
    y0, y1 = (Polynomial.variable(qi, 2, j) for j in range(2))
    i = qi.generator_element("i")
    squares = [(qi.scalar(Q(1, 2)), y0 + y1 * i), (qi.scalar(Q(1, 2)), y0 - y1 * i),
               (qi.one(), y1)]
    assert _both(_cert(qi, 2, 2, (2, 0), squares)) == (True, True)
    assert _both(_cert(qi, 2, 2, (2, 0), squares[:2])) == (False, False)


def _rescaled(cert, factor):
    """cert with its first scalar times ``factor``: false unless factor is 1."""
    (s, form), *rest = cert.summands
    return _cert(cert.tower, len(cert.variables), cert.k, cert.target.exponents,
                 [(s * factor, form)] + rest)


def _lifted(cert, tower, name):
    """cert's identity over ``tower``: every form times the generator g and
    every scalar over g^k, which must be rational."""
    g = tower.generator_element(name)
    gk = (g ** cert.k).rational_value()
    summands = [
        (tower.scalar(s.rational_value() / gk),
         Polynomial(tower, f.nvars, {e: g * c.rational_value() for e, c in f.terms.items()}))
        for s, f in cert.summands
    ]
    return _cert(tower, len(cert.variables), cert.k, cert.target.exponents, summands)


def _polarized_product():
    """6 x0 x1 x2 by inclusion-exclusion over cubes: supports of 3, 2 and 1
    terms in one certificate."""
    t = EMPTY_TOWER
    x = [Polynomial.variable(t, 3, i) for i in range(3)]
    sixth = t.scalar(Q(1, 6))
    summands = [(sixth, x[0] + x[1] + x[2])]
    summands += [(-sixth, x[i] + x[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    summands += [(sixth, xi) for xi in x]
    return _cert(t, 3, 3, (1, 1, 1), summands)


@pytest.mark.parametrize("build", [
    lambda: _cert(EMPTY_TOWER, 1, 4, (4,), [(EMPTY_TOWER.scalar(Q(1, 2)),
                                             Polynomial.variable(EMPTY_TOWER, 1, 0))] * 2),
    lambda: decomp.two_square(Monomial((1, 1))),
    lambda: monomial_linear_decomp((1, 2, 2)),
    lambda: product_linear(5),
    _polarized_product,
    lambda: product_linear(4),
    lambda: _lifted(product_linear(4), _sqrt_tower(), "u"),
    lambda: monomial_linear_decomp((1, 2, 3)),
    lambda: _lifted(product_linear(4), _two_sqrt_tower(), "w"),
    lambda: _lifted(product_linear(4), _nested_tower(), "w"),
    lambda: _lifted(product_linear(4), _sqrt_of(2047), "u"),
], ids=["t = 1, two summands", "t = 2", "t = 3", "t = 5", "supports of 3, 2 and 1 terms",
        "Q", "size 2", "cyclotomic size 4", "two square roots, size 4", "nested, size 4",
        "u^2 = 2047, at the column bound"])
def test_split_kernel_agrees_with_the_integer_kernel(build):
    """The modular kernel against the exact fallback (the Python-int kernel
    this test's name recalls is gone; the ids are kept)."""
    cert = build()
    assert _both(cert) == (True, True)
    assert _both(_rescaled(cert, 2)) == (False, False)


def test_a_support_group_beyond_one_int64_accumulation():
    """x0 x1 as 1,050 copies each of (1/4200)(x0 + x1)^2 and
    -(1/4200)(x0 - x1)^2: 2,100 summands of one support, more than the
    2,048 products one int64 sum holds before it is reduced."""
    t = EMPTY_TOWER
    x0, x1 = (Polynomial.variable(t, 2, i) for i in range(2))
    summands = [(t.scalar(Q(1, 4200)), x0 + x1), (t.scalar(Q(-1, 4200)), x0 - x1)] * 1050
    cert = _cert(t, 2, 2, (1, 1), summands)
    assert len({tuple(sorted(f.terms)) for _, f in cert.summands}) == 1
    assert len(cert.summands) > decomp._MAX_TERMS
    assert _both(cert) == (True, True)
    assert _both(_rescaled(cert, Q(1051, 1050))) == (False, False)


def test_small_blocks_give_the_same_verdicts(monkeypatch):
    """With a tiny ``BLOCK_BYTES`` the summands go in many blocks; the
    verdicts do not move: each true identity holds, and with its first
    scalar doubled it fails."""
    monkeypatch.setattr(decomp, "BLOCK_BYTES", 1 << 10)
    for cert in (monomial_linear_decomp((1, 2, 3, 3)), product_linear(6), _polarized_product()):
        assert _modular_kernel(*_cleared(cert)) is True
        assert _modular_kernel(*_cleared(_rescaled(cert, 2))) is False


def test_int64_sums_are_reduced_between_blocks():
    """x0 as 2,048 pairs -(1/4096)(x1 - x0) and -(1/4096)(-x1 - x0), k = 1:
    every scalar and every x0 coefficient is -1, residue p - 1, so each of
    the 4,096 summands adds a product near 2^52 to one leaf, and the two
    blocks of 2,048 overflow int64 unless each is reduced."""
    t = EMPTY_TOWER
    x0, x1 = (Polynomial.variable(t, 2, i) for i in range(2))
    minus = t.scalar(Q(-1, 4096))
    cert = _cert(t, 2, 1, (1, 0), [(minus, x1 - x0), (minus, -x1 - x0)] * 2048)
    assert len(cert.summands) == 4096
    assert _both(cert) == (True, True)
    assert _both(_rescaled(cert, 3)) == (False, False)


@pytest.mark.parametrize("t", range(1, 7))
def test_split_plan_pairs_every_leaf_once(t):
    for k in range(1, 7):
        plan = _split_plan(t, k)
        counts = multinomial_table(t, k)[1]
        assert sorted(plan.position.tolist()) == list(range(len(counts)))
        first, second = plan.first.T // t, plan.second.T // t  # powers per term
        leaves = np.zeros_like(counts)
        for a0, a1, b0, b1, l0, l1 in plan.splits:
            assert l1 - l0 == (a1 - a0) * (b1 - b0)
            pairs = [np.concatenate((first[i], second[j]))
                     for i in range(a0, a1) for j in range(b0, b1)]
            assert all(row.sum() == k for row in pairs)
            leaves[l0:l1] = pairs
        assert (leaves[plan.position] == counts).all(), (t, k)


def test_each_leaf_reaches_the_table_once(monkeypatch):
    """Elementwise tower products while verifying the (1, 2, 3, 3) averaging
    certificate, per prime and root tuple: k powers per term and summand,
    the products of each half's assignments, then one cross product per
    leaf and summand, summed over the summands by one matmul per split,
    where a leaf-by-leaf expansion takes t - 1 products per leaf and
    summand.  No table product is left: evaluation makes each of them one
    multiplication."""
    cert = monomial_linear_decomp((1, 2, 3, 3))
    args = _cleared(cert)
    ring, parts, k, _ = args
    members, t = len(parts), len(parts[0][0])
    assert (members, t, k, ring.size) == (48, 4, 9, 4)
    counts = {"powers": 0, "halves": 0, "leaves": 0}
    powers, half_products, leaf_sums = decomp._powers, decomp._half_products, decomp._leaf_sums

    def counted_powers(values, k, moduli):
        pw = powers(values, k, moduli)
        counts["powers"] += k * pw.shape[3] * pw.shape[4]
        return pw

    def counted_halves(pw, index, moduli):
        out = half_products(pw, index, moduli)
        counts["halves"] += (len(index) - 1) * out.shape[2] * out.shape[3]
        return out

    def counted_leaves(values, k, moduli):
        out = leaf_sums(values, k, moduli)
        counts["leaves"] += out.shape[2]
        return out

    monkeypatch.setattr(decomp, "_powers", counted_powers)
    monkeypatch.setattr(decomp, "_half_products", counted_halves)
    monkeypatch.setattr(decomp, "_leaf_sums", counted_leaves)
    assert _modular_kernel(*args) is True
    h = t // 2
    halves = comb(k + h, h) * (h - 1) + comb(k + t - h, t - h) * (t - h - 1)
    leaves = comb(k + t - 1, t - 1)
    assert counts == {"powers": members * t * k, "halves": members * halves, "leaves": leaves}
    assert members * (t * k + halves + leaves) == 17568
    assert members * (t * k + halves + leaves) < members * (t * k + (t - 1) * leaves)


def _fallback_raises(monkeypatch):
    def refuse(cert):
        raise AssertionError("the exact fallback ran")

    monkeypatch.setattr(decomp, "_expanded", refuse)


def test_plain_q_grid_and_large_towers(monkeypatch):
    """Q, and towers of 48 and 144 basis elements, verify on the modular
    path: there is no size cap.  A corrupted copy of each is rejected."""
    big = roots_of_unity_tower([5, 7, 9])  # 4 * 6 * 6 = 144 basis elements
    z0, z1 = (Polynomial.variable(big, 2, j) for j in range(2))
    large = _cert(big, 2, 2, (1, 1), [(big.scalar(Q(1, 4)), z0 + z1),
                                      (big.scalar(Q(-1, 4)), z0 - z1)])
    certs = [monomial_linear_decomp((1, 1, 1, 1)), monomial_linear_decomp((1, 2, 4, 6)), large]
    _fallback_raises(monkeypatch)
    for cert, size in zip(certs, (1, 48, 144)):
        assert _cleared(cert)[0].size == size
        assert verify(cert) is True
        assert verify(_rescaled(cert, 2)) is False


def test_primes_are_distinct_and_below_the_limit():
    primes = [_prime(i) for i in range(40)]
    assert len(set(primes)) == 40 and all(p < PRIME_LIMIT == 2 ** 26 for p in primes)
    assert list(primes) == sorted(primes, reverse=True)
    for p in primes:
        assert all(p % q for q in range(2, int(p ** 0.5) + 1))
    assert [n for n in range(2, 2000) if is_prime(n)] == [
        n for n in range(2, 2000) if all(n % q for q in range(2, int(n ** 0.5) + 1))]


@pytest.mark.parametrize("tower", [EMPTY_TOWER, _sqrt_tower()], ids=["Q", "sqrt"])
def test_split_primes_cover_the_height(tower):
    """The fewest split primes whose product exceeds the height: a product
    of two primes needs a third.  The arrays for a prime count are kept on
    the structure."""
    ring = tower.integer_structure()
    two = prod(p for p, _ in ring.split_primes(2))
    for height, count in ((1, 1), (two - 1, 2), (two, 3)):
        primes = ring.split_primes_above(height)[0]
        assert len(primes) == count and prod(primes) > height
        assert ring.split_primes_above(height) is ring.split_primes_above(height)


def test_split_prime_arrays_live_as_long_as_their_tower():
    """Verify one certificate over each of ``TOWER_CACHE_SIZE`` + 36
    distinct towers u^2 = a: once a tower leaves the intern cache, no cache
    keeps its structure and split-prime arrays alive."""
    structures = []
    for a in range(2, TOWER_CACHE_SIZE + 38):
        tower = _sqrt_of(a)
        z0, z1 = (Polynomial.variable(tower, 2, j) for j in range(2))
        cert = _cert(tower, 2, 2, (1, 1), [(tower.scalar(Q(1, 4)), z0 + z1),
                                           (tower.scalar(Q(-1, 4)), z0 - z1)])
        assert verify(cert) is True
        structures.append(weakref.ref(tower.integer_structure()))
    del tower, z0, z1, cert
    gc.collect()
    assert sum(ref() is not None for ref in structures) <= TOWER_CACHE_SIZE


def test_verify_memory_stays_bounded():
    cert = monomial_linear_decomp((1, 2, 3, 3))
    verify(cert)
    tracemalloc.start()
    try:
        assert verify(cert) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_verify_memory_of_product_linear_8_stays_bounded():
    """Under the 2.14 MiB that the leaf-by-leaf kernel peaked at."""
    cert = product_linear(8)
    verify(cert)
    tracemalloc.start()
    try:
        assert verify(cert) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def _sqrt_of(n):
    """The tower u^2 = n."""
    return EMPTY_TOWER.extend("u", (Q(-n), Q(0), Q(1)))


def _rank_mod(rows, p: int) -> int:
    """The rank mod p of a matrix of ints, by Gaussian elimination."""
    rows, rank = [[a % p for a in row] for row in rows], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inverse % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


EVALUATION_TOWERS = {
    **TABLE_TOWERS,
    "u^2 = 2047, at the column bound": _sqrt_of(2047),
    "u^2 = 3000": _sqrt_of(3000),
}


@pytest.mark.parametrize("tower", EVALUATION_TOWERS.values(), ids=EVALUATION_TOWERS.keys())
def test_mul_mod_is_mul_reduced_mod_each_prime(tower):
    """At each of three split primes p: p divides no denominator of the
    tower, the evaluation matrix E is invertible mod p, and
    E mul(x, y) = L * (E x) * (E y) mod p, elementwise, for vectors with
    every residue p - 1 and random ones.  The nested cubic tower has none:
    w^3 - (u/3) w^2 = w^2 (w - u/3) has a double root at every prime."""
    ring = tower.integer_structure()
    n, big = ring.size, ring.denominator
    split = ring.split_primes(3)
    if tower == _nested_cubic_tower():
        assert split is None
        return
    assert [p for p, _ in split] == sorted({p for p, _ in split}, reverse=True)
    rng = random.Random(n)
    for p, matrix in split:
        assert big % p and all(c.denominator % p for g in tower.generators
                               for c in g.lower_coeffs)
        assert matrix.shape == (n, n) and _rank_mod(matrix.tolist(), p) == n
        xs = [[p - 1] * n] + [[rng.randrange(p) for _ in range(n)] for _ in range(16)]
        for x, y in zip(xs, xs[:1] + xs[:0:-1]):
            ex, ey, exy = ([sum(e * a for e, a in zip(row, v)) % p for row in matrix.tolist()]
                           for v in (x, y, ring.mul(x, y)))
            assert exy == [big * a * b % p for a, b in zip(ex, ey)]


def test_cyclotomic_levels_take_the_shortcut():
    """Every m-th cyclotomic level up to m = 60 is known by its m, whose
    primitive roots of unity are its roots at p = 1 mod m; other levels,
    such as u^2 = 1/6, v^3 = -2 and u^2 - 2u + 1, are split in general."""
    for m in range(3, 61):
        gen = EMPTY_TOWER.extend("z", cyclotomic_poly(m)).generators[0]
        assert algebra._unity_order(gen) == m, m
    for coeffs in [(Q(-1, 6), 0, 1), (2, 0, 0, 1), (1, -2, 1), (1, 0, 0, 0, 0, 0, 1)]:
        assert algebra._unity_order(EMPTY_TOWER.extend("u", coeffs).generators[0]) is None
    assert algebra._unity_roots(7, 67108859) is None  # 67108859 = 6 mod 7
    p = next(q for q in map(_prime, range(100)) if q % 7 == 1)
    roots = algebra._unity_roots(7, p)
    assert len(set(roots)) == 6 and all(pow(r, 7, p) == 1 != r for r in roots)


INSEPARABLE = {
    "nested-cubic": _nested_cubic_tower(),  # w^3 - (u/3) w^2
    "u^2 - 2u + 1": EMPTY_TOWER.extend("u", (1, -2, 1)),
}


@pytest.mark.parametrize("tower", INSEPARABLE.values(), ids=INSEPARABLE.keys())
def test_inseparable_towers_use_the_exact_fallback(tower, monkeypatch):
    """A tower with a repeated root has no split prime: product_linear(4)
    with a cancelling pair in the repeated generator goes to ``_expanded``
    (the modular kernel returns None), and a corrupted copy is rejected
    there and by the reference checker."""
    assert tower.integer_structure().split_primes(1) is None
    g = tower.generator_element(tower.names[-1])
    base = product_linear(4)
    summands = [(tower.scalar(s.rational_value()),
                 Polynomial(tower, f.nvars, {e: tower.scalar(c.rational_value())
                                             for e, c in f.terms.items()}))
                for s, f in base.summands]
    form = summands[0][1]
    summands += [(g ** 4, form), (-tower.one(), form * g)]
    cert = _cert(tower, 4, 4, (1, 1, 1, 1), summands)
    bad = corrupted(serialize(cert), random.Random(4))
    assert _modular_kernel(*_cleared(cert)) is None
    calls = spy_on_the_fallback(monkeypatch)
    assert verify(cert) is True and len(calls) == 1
    assert verify(parse(bad)) is False and len(calls) == 2
    assert refcheck.check(bad) is False


@pytest.mark.parametrize("tower, candidates", zip(INSEPARABLE.values(), (4, 1)),
                         ids=INSEPARABLE.keys())
def test_a_repeated_root_ends_the_prime_search(tower, candidates, monkeypatch):
    """The search stops at the first prime where a level has a repeated
    root, gcd(f, f') != 1 mod p, instead of trying all ``SPLIT_SEARCH``
    candidates, and later calls do not search again: u^2 - 2u + 1 stops at
    the first prime, the nested cubic tower at the first where u^2 = 1/2
    splits, the fourth."""
    tried = []
    root_tuples = algebra._root_tuples

    def counted(tower, orders, p):
        tried.append(p)
        return root_tuples(tower, orders, p)

    monkeypatch.setattr(algebra, "_root_tuples", counted)
    ring = algebra.IntegerStructure(tower)  # a fresh search
    assert ring.split_primes(1) is None and ring.split_primes(1) is None
    assert tried == [_prime(i) for i in range(candidates)]


def test_towers_beyond_the_column_bound_use_the_integer_kernel(monkeypatch):
    """u^2 = 3000 has table column norm 3001, past the int64 column bound
    of the table kernel that evaluation replaced, which sent it to the
    Python-int kernel: it now verifies on the modular path, and a
    corrupted copy is rejected there."""
    tower = _sqrt_of(3000)
    u = tower.generator_element("u")
    # product_linear(4) with every form times u: (u l)^4 = 3000^2 l^4
    base = product_linear(4)
    summands = [
        (tower.scalar(s.rational_value() / 3000 ** 2),
         Polynomial(tower, f.nvars, {e: u * c.rational_value() for e, c in f.terms.items()}))
        for s, f in base.summands
    ]
    cert = _cert(tower, 4, 4, (1, 1, 1, 1), summands)
    bad = parse(corrupted(serialize(cert), random.Random(3000)))
    _fallback_raises(monkeypatch)
    assert verify(cert) is True
    assert verify(bad) is False

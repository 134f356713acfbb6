"""The two expansion kernels behind ``verify`` against each other.

``_integer_kernel`` expands in Python ints; ``_modular_kernel`` expands in
numpy int64 modulo primes whose product exceeds ``_height_bound``.  They must
give the same verdict on every certificate of the decompose sweep, on the
golden files and on a seeded single-digit corruption of each golden file, and
the height bound must dominate every coefficient of the exact difference
that the integer kernel computes.  The modular kernel's tower product
``_mul_mod`` must equal ``IntegerStructure.mul`` reduced mod each prime, up to
the table column norm that keeps it exact in int64.  The sympy oracle runs
both kernels too (``tests/test_verify_oracle.py``).
"""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kwaring import decomp
from kwaring.algebra import EMPTY_TOWER, roots_of_unity_tower
from kwaring.certfile import parse, serialize
from kwaring.decomp import (
    Certificate,
    _cleared,
    _height_bound,
    _integer_difference,
    _integer_kernel,
    _modular_kernel,
    _mul_mod,
    _primes,
    decompose,
    monomial_linear_decomp,
    product_linear,
    verify,
)
from kwaring.polynomials import Monomial, Polynomial
from kwaring.rank import KInstance
from kwaring.rationals import Q

from test_sweep import sweep
from test_verify_oracle import (
    _nested_cubic_tower,
    _nested_tower,
    _sqrt_tower,
    _two_sqrt_tower,
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


def assert_kernels_agree(cert) -> bool:
    args = _cleared(cert)
    verdict = _integer_kernel(*args)
    assert _modular_kernel(*args) is verdict
    diff = _integer_difference(*args)
    largest = max(abs(a) for v in diff.values() for a in v)
    assert _height_bound(*args[:3]) >= largest
    return verdict


def test_kernels_agree_on_the_sweep():
    for k, exps in sweep():
        assert assert_kernels_agree(decompose(KInstance(Monomial(exps), k))), (k, exps)


def test_kernels_agree_on_golden_files_and_their_corruptions():
    rng = random.Random(5)
    paths = sorted(GOLDEN_DIR.glob("*.cert"))
    assert len(paths) == 16
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert assert_kernels_agree(parse(text)) is True, path.name
        assert assert_kernels_agree(parse(corrupted(text, rng))) is False, path.name


def _cert(tower, nv, k, target, summands):
    return Certificate(tuple(f"x{i}" for i in range(nv)), k, Monomial(target), tower,
                       tuple(summands))


def _both(cert):
    args = _cleared(cert)
    return _integer_kernel(*args), _modular_kernel(*args)


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


def test_plain_q_grid_and_large_towers():
    cert = monomial_linear_decomp((1, 1, 1, 1))  # product of four variables over Q
    assert cert.tower == EMPTY_TOWER and _both(cert) == (True, True)
    big = roots_of_unity_tower([5, 7, 9])  # 4 * 6 * 6 = 144 basis elements
    z0, z1 = (Polynomial.variable(big, 2, j) for j in range(2))
    cert = _cert(big, 2, 2, (1, 1), [(big.scalar(Q(1, 4)), z0 + z1),
                                     (big.scalar(Q(-1, 4)), z0 - z1)])
    assert verify(cert) is True
    with pytest.raises(ValueError, match="size <= 45"):
        _modular_kernel(*_cleared(cert))


def test_primes_are_distinct_and_below_the_limit():
    primes = _primes(40)
    assert len(set(primes)) == 40 and all(p < 2 ** 26 for p in primes)
    for p in primes:
        assert all(p % q for q in range(2, int(p ** 0.5) + 1))
    assert [n for n in range(2, 2000) if decomp._is_prime(n)] == [
        n for n in range(2, 2000) if all(n % q for q in range(2, int(n ** 0.5) + 1))]


def test_verify_memory_stays_bounded():
    cert = monomial_linear_decomp((1, 2, 3, 3))
    args = _cleared(cert)
    assert decomp._expansion_work(*args[:3]) >= decomp.MODULAR_MIN_WORK
    verify(cert)
    tracemalloc.start()
    try:
        assert verify(cert) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def _sqrt_of(n):
    """The tower u^2 = n: its table column norm is n + 1."""
    return EMPTY_TOWER.extend("u", (Q(-n), Q(0), Q(1)))


@pytest.mark.parametrize(
    "tower",
    [_sqrt_tower(), _two_sqrt_tower(), _nested_tower(), _nested_cubic_tower(),
     roots_of_unity_tower([5, 6]), _sqrt_of(2047)],
    ids=["sqrt", "two-sqrt", "nested", "nested-cubic", "cyclotomic 5, 6",
         "u^2 = 2047, at the column bound"],
)
def test_mul_mod_is_mul_reduced_mod_each_prime(tower):
    ring = tower.integer_structure()
    assert ring.column_norm <= decomp._MAX_COLUMN_NORM
    n, primes = ring.size, _primes(3)
    top = np.array(primes, dtype=np.int64).reshape(-1, 1, 1) - 1
    rng = np.random.default_rng(n)
    x = np.concatenate([np.broadcast_to(top, (3, 1, n)),  # every residue p - 1
                        rng.integers(0, top, size=(3, 16, n), endpoint=True)], axis=1)
    y = np.concatenate([x[:, :1], x[:, :0:-1]], axis=1)
    got = _mul_mod(x, y, ring.table, top + 1)
    for i, p in enumerate(primes):
        for b in range(x.shape[1]):
            want = [v % p for v in ring.mul(x[i, b].tolist(), y[i, b].tolist())]
            assert got[i, b].tolist() == want, (i, b)


def test_towers_beyond_the_column_bound_use_the_integer_kernel():
    """u^2 = 3000 has column norm 3001, where one p^2-sized product times the
    table could overflow int64: verify expands it in Python ints."""
    tower = _sqrt_of(3000)
    assert tower.integer_structure().column_norm == 3001
    u = tower.generator_element("u")
    # product_linear(4) with every form times u: (u l)^4 = 3000^2 l^4
    base = product_linear(4)
    summands = [
        (tower.scalar(s.rational_value() / 3000 ** 2),
         Polynomial(tower, f.nvars, {e: u * c.rational_value() for e, c in f.terms.items()}))
        for s, f in base.summands
    ]
    cert = _cert(tower, 4, 4, (1, 1, 1, 1), summands)
    args = _cleared(cert)
    assert decomp._expansion_work(*args[:3]) >= decomp.MODULAR_MIN_WORK
    with pytest.raises(ValueError, match="column norm <= 2048"):
        _modular_kernel(*args)
    assert verify(cert) is True
    bad = parse(corrupted(serialize(cert), random.Random(3000)))
    assert verify(bad) is False

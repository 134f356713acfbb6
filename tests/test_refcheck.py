"""``verify`` against the reference checker ``tests/refcheck.py``, which reads
certificate files with the standard library alone and expands them by
repeated multiplication, sharing no code with kwaring.

The two must agree on every file: the golden files and a seeded corruption
of each, a seeded tenth of the decompose sweep, every true certificate and
corruption of ``tests/test_verify_oracle.py``, and a false identity whose
difference one prime divides.  The full sweep runs in CI (``python
tests/test_sweep.py DIR`` then ``python tests/refcheck.py DIR/*.cert``).
"""

import ast
import random
import sys
from pathlib import Path

import pytest

import refcheck
from kwaring import decomp
from kwaring.algebra import EMPTY_TOWER
from kwaring.certfile import parse, serialize
from kwaring.decomp import _cleared, decompose, product_linear, verify
from kwaring.polynomials import Monomial, Polynomial
from kwaring.rank import KInstance
from kwaring.rationals import Q

from test_sweep import sweep
from test_verify_kernels import GOLDEN_DIR, corrupted
from test_verify_oracle import TRUE_CERTS, corruptions


def agree(text: str) -> bool:
    """The common verdict of ``verify`` and the reference checker on a file."""
    verdict = verify(parse(text))
    assert refcheck.check(text) is verdict
    return verdict


def test_the_checker_imports_only_the_standard_library():
    tree = ast.parse(Path(refcheck.__file__).read_text(encoding="utf-8"))
    modules = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules and modules <= set(sys.stdlib_module_names), modules


def test_golden_files_and_their_corruptions():
    rng = random.Random(17)
    paths = sorted(GOLDEN_DIR.glob("*.cert"))
    assert len(paths) == 16
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert agree(text) is True, path.name
        assert agree(corrupted(text, rng)) is False, path.name


def test_a_tenth_of_the_sweep():
    instances = random.Random(21).sample(list(sweep()), 52)
    for k, exps in instances:
        assert agree(serialize(decompose(KInstance(Monomial(exps), k)))) is True, (k, exps)


@pytest.mark.parametrize("name", sorted(TRUE_CERTS))
@pytest.mark.parametrize("seed", range(2))
def test_the_oracle_identities_and_their_corruptions(name, seed):
    for variant, bad in corruptions(name, seed):
        assert agree(serialize(variant)) is True
        assert agree(serialize(bad)) is False


def test_a_difference_that_one_prime_divides():
    """product_linear(4) plus (p / common) x0^4, with p the largest prime
    the modular kernel uses over Q and common the summands' common
    denominator: the exact difference is p x0^4, which vanishes modulo p.
    ``_height_bound`` counts the new scalar, so a second prime rejects it."""
    cert = product_linear(4)
    _, common = decomp._modular_denominators(*_cleared(cert)[:3])
    (p, _), = EMPTY_TOWER.integer_structure().split_primes(1)
    x0 = Polynomial.variable(EMPTY_TOWER, 4, 0)
    cert.summands += ((EMPTY_TOWER.scalar(Q(p, common)), x0),)
    assert decomp._modular_denominators(*_cleared(cert)[:3])[1] == common
    assert agree(serialize(cert)) is False

"""Every instance of a fixed sweep decomposes, with as many summands as
classify's upper bound, and classify plus the certificate bytes reproduce a
pinned digest.

The sweep is k = 2..6, 1-4 variables with positive exponents, degree k and
2k (515 instances).
"""

import hashlib
import itertools

from kwaring.certfile import serialize
from kwaring.decomp import decompose
from kwaring.polynomials import Monomial
from kwaring.rank import KInstance, classify

SWEEP_SHA256 = "8379fae315a7499544e57935ac3b9863e3b3ac4f54a7ad36caa86137d865ee79"


def sweep():
    for k in range(2, 7):
        for degree in (k, 2 * k):
            for nvars in range(1, 5):
                for cuts in itertools.combinations(range(1, degree), nvars - 1):
                    ends = (0,) + cuts + (degree,)
                    yield k, tuple(ends[i + 1] - ends[i] for i in range(nvars))


def digest(instances) -> str:
    """sha256 over each instance's bounds, trace and certificate text; fails
    on any certificate whose summand count is not classify's upper bound."""
    h = hashlib.sha256()
    for k, exps in instances:
        inst = KInstance(Monomial(exps), k)
        bounds = classify(inst)
        cert = decompose(inst)
        assert cert.summand_count == bounds.upper, (k, exps)
        h.update(f"{k} {exps} {bounds.lower} {bounds.upper} {bounds.exact}\n".encode())
        for r in bounds.trace:
            h.update(f"{r.rule} | {r.statement} | {r.kind} {r.bound}\n".encode())
        h.update(serialize(cert).encode())
    return h.hexdigest()


def test_sweep_decomposes_and_reproduces_the_pinned_digest():
    instances = list(sweep())
    assert len(instances) == 515
    assert digest(instances) == SWEEP_SHA256


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_sweep.py DIR [BAD] writes every sweep
    # certificate to DIR and, given BAD, a seeded single-digit corruption of
    # each to BAD, for the reference checker (tests/refcheck.py)
    import random
    import sys
    from pathlib import Path

    from test_verify_kernels import corrupted

    out = Path(sys.argv[1])
    bad = Path(sys.argv[2]) if len(sys.argv) > 2 else None
    rng = random.Random(515)
    for directory in filter(None, (out, bad)):
        directory.mkdir(parents=True, exist_ok=True)
    for k, exps in sweep():
        text = serialize(decompose(KInstance(Monomial(exps), k)))
        name = f"k{k}_{'-'.join(map(str, exps))}.cert"
        (out / name).write_text(text, encoding="utf-8")
        if bad:
            (bad / name).write_text(corrupted(text, rng), encoding="utf-8")

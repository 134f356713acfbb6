"""Every instance of a fixed sweep decomposes, with as many summands as
classify's upper bound, and classify plus the certificate bytes reproduce a
pinned digest.

The sweep is k = 2..6, 1-4 variables with positive exponents, degree k and
2k (515 instances).  The digest was taken before decompose could split
x0^4 x1^4 x2^4 at k = 6 (``REPAIRED``); that instance is checked for its
summand count only.
"""

import hashlib
import itertools

from kwaring.certfile import serialize
from kwaring.decomp import decompose
from kwaring.polynomials import Monomial
from kwaring.rank import KInstance, classify

SWEEP_SHA256 = "0c6ce2eeb3e7f3808cb4e2b5cea8740e5cbdb5c85f828c7d57833eab8b46e8a1"
REPAIRED = [(6, (4, 4, 4))]


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
    assert len(instances) == 515 and set(REPAIRED) <= set(instances)
    assert digest(i for i in instances if i not in REPAIRED) == SWEEP_SHA256
    digest(REPAIRED)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_sweep.py DIR writes every sweep
    # certificate to DIR, for the reference checker (tests/refcheck.py)
    import sys
    from pathlib import Path

    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for k, exps in sweep():
        cert = decompose(KInstance(Monomial(exps), k))
        name = f"k{k}_{'-'.join(map(str, exps))}.cert"
        (out / name).write_text(serialize(cert), encoding="utf-8")

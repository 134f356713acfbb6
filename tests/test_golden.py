"""Golden certificate files: decompose and the public constructors must keep
writing these exact bytes.

Each file in ``tests/golden/`` is the serialized certificate of one fixed
instance: one k = 2..6 instance through ``decompose``, one instance per k = 3
residue pattern that the constructions tell apart, so that every rule of
``rank.RULES`` with a build step builds at least one of them,
``product_linear(5)`` and ``special_x04x1x2``.  Regenerate them, after a
deliberate format change only, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from kwaring import KInstance, Monomial, decompose, product_linear, serialize, special_x04x1x2
from kwaring.rank import RULES, attaining_rule, classify

GOLDEN_DIR = Path(__file__).parent / "golden"

# (k, exponents) run through decompose
DECOMPOSE = [
    (2, (3, 1)),
    (3, (1, 2)),              # xy2
    (3, (2, 2, 2)),           # x2y2z2
    (3, (1, 1, 2, 2)),        # xyw2z2
    (3, (1, 2, 2, 2, 2)),     # xy2-5
    (3, (4, 1, 1)),           # x4yz
    (3, (1, 1, 1)),           # xyz
    (3, (1, 1, 1, 3)),        # xyz-open
    (3, (1, 1, 1, 1, 2)),     # xyzw2
    (3, (1, 1, 1, 1, 1, 1)),  # other
    (4, (3, 2, 2, 1)),
    (5, (2, 1, 1, 1)),
    (6, (5, 1)),
    (3, (6, 3)),              # pure power
]


def _name(k, exps):
    return f"decompose_k{k}_{'-'.join(map(str, exps))}.cert"


def golden_builders():
    out = {_name(k, exps): (lambda k=k, exps=exps: decompose(KInstance(Monomial(exps), k)))
           for k, exps in DECOMPOSE}
    out["product_linear_5.cert"] = lambda: product_linear(5)
    out["special_x04x1x2.cert"] = special_x04x1x2
    return out


def test_instance_list_covers_every_build_rule():
    chosen = {attaining_rule(classify(KInstance(Monomial(exps), k))).name
              for k, exps in DECOMPOSE}
    assert chosen == {rule.name for rule in RULES if rule.build is not None}
    assert {k for k, _ in DECOMPOSE} == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("name", sorted(golden_builders()))
def test_golden_certificate_bytes(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert serialize(golden_builders()[name]()).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in sorted(golden_builders().items()):
        (GOLDEN_DIR / name).write_bytes(serialize(build()).encode("utf-8"))
        print("wrote", GOLDEN_DIR / name)

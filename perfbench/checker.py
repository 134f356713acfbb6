"""Independent correctness checks.

Nothing here reuses kwaring's exact expansion (``verify``, ``Polynomial.__pow__``,
ring multiplication).  A certificate is checked by evaluating both sides of
``M = sum_j c_j * G_j^k`` in floating point at seeded complex points, with each
tower generator mapped to a seeded choice among its complex roots (the
tower's own ``complex_roots``).  An identity in the tower holds for every
such choice, so a relative mismatch far above rounding error proves the
certificate wrong.  Search results are checked the same way from their
parameter vectors.
"""

from __future__ import annotations

import numpy as np

# A correct certificate evaluates to within rounding error of its target ...
MATCH_TOL = 1e-9
# ... and a certificate used as a known-wrong input must miss by far more.
MISMATCH_TOL = 1e-6
# Converged search results carry a coefficient residual of 1e-10.
SEARCH_TOL = 1e-6


def _ring_value(terms: dict, roots) -> complex:
    total = 0j
    for exps, c in terms.items():
        t = complex(c.numerator / c.denominator)
        for r, e in zip(roots, exps):
            if e:
                t *= r ** e
        total += t
    return total


def _monomial_value(exps, point) -> complex:
    v = 1 + 0j
    for x, e in zip(point, exps):
        if e:
            v *= x ** e
    return v


def random_point(rng, nvars: int):
    radius = rng.uniform(0.5, 1.0, nvars)
    angle = rng.uniform(0.0, 2.0 * np.pi, nvars)
    return radius * np.exp(1j * angle)


def certificate_mismatch(cert, rng, points: int = 2) -> float:
    """Largest relative mismatch of sum c_j G_j^k - M over seeded samples."""
    worst = 0.0
    nv = len(cert.variables)
    for _ in range(points):
        roots = cert.tower.complex_roots(rng)
        x = random_point(rng, nv)
        lhs = 0j
        scale = 0.0
        for scalar, form in cert.summands:
            g = 0j
            for exps, c in form.terms.items():
                g += _ring_value(c.terms, roots) * _monomial_value(exps, x)
            term = _ring_value(scalar.terms, roots) * g ** cert.k
            lhs += term
            scale += abs(term)
        target = _monomial_value(cert.target.exponents, x)
        scale += abs(target)
        worst = max(worst, abs(lhs - target) / scale)
    return worst


def search_mismatch(target_exps, k: int, s: int, form_basis, params, rng,
                    points: int = 2) -> float:
    """Relative mismatch of sum_j G_j^k - M for a flattened parameter vector."""
    B = len(form_basis)
    worst = 0.0
    for _ in range(points):
        x = random_point(rng, len(target_exps))
        basis_vals = np.array([_monomial_value(mu, x) for mu in form_basis])
        lhs = 0j
        scale = 0.0
        for j in range(s):
            g = complex(np.dot(params[j * B:(j + 1) * B], basis_vals))
            lhs += g ** k
            scale += abs(g) ** k
        target = _monomial_value(target_exps, x)
        scale += abs(target)
        worst = max(worst, abs(lhs - target) / scale)
    return worst

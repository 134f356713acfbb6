"""Numeric search: residuals, analytic gradients, determinism, convergence.

The gradient convention pairs Re/Im of each entry of 2 J^H r with the partial
derivatives of the squared error in the real and imaginary parameter parts;
finite differences check exactly that pairing.
"""

import importlib
import math

import numpy as np
import pytest

from kwaring.decomp import special_x04x1x2, two_square
from kwaring.polynomials import Monomial
from kwaring.search import (
    SearchProblem,
    gradient,
    params_from_certificate,
    residual,
    _damped_solve,
    _damping_filter,
    _jacobian,
    _lm_minimize,
    residual_vector,
    search,
)

# the module itself: the package attribute kwaring.search is the function
search_module = importlib.import_module("kwaring.search")


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(Monomial((1, 1)), 1, 2)
    with pytest.raises(ValueError):
        SearchProblem(Monomial((1, 1)), 2, 0)
    with pytest.raises(ValueError):
        SearchProblem(Monomial((1, 1, 1)), 2, 2)  # degree 3 not divisible
    p = SearchProblem(Monomial((2, 2)), 4, 3)
    assert p.d == 1 and p.nparams == 3 * 2


def test_residual_at_zero_params():
    p = SearchProblem(Monomial((1, 1)), 2, 1)
    r = residual_vector(p, np.zeros(p.nparams, dtype=complex))
    # only the target coordinate is nonzero, with coefficient -1
    nz = np.nonzero(r)[0]
    assert len(nz) == 1
    assert r[nz[0]] == -1.0
    assert residual(p, np.zeros(p.nparams, dtype=complex)) == 1.0


def test_residual_rejects_wrong_shape():
    p = SearchProblem(Monomial((1, 1)), 2, 1)
    with pytest.raises(ValueError):
        residual_vector(p, np.zeros(p.nparams + 1, dtype=complex))


def test_exact_certificate_has_negligible_residual():
    cert = special_x04x1x2()
    p = SearchProblem(Monomial((4, 1, 1)), 3, 3)
    params = params_from_certificate(p, cert)
    assert residual(p, params) < 1e-20

    sq = two_square(Monomial((3, 1)))
    p2 = SearchProblem(Monomial((3, 1)), 2, 2)
    assert residual(p2, params_from_certificate(p2, sq)) < 1e-20


def test_params_from_certificate_mismatch():
    cert = special_x04x1x2()
    with pytest.raises(ValueError):
        params_from_certificate(SearchProblem(Monomial((4, 1, 1)), 3, 2), cert)


def _fd_gradient(problem, params, h=1e-5):
    out = np.zeros(problem.nparams, dtype=complex)
    for i in range(problem.nparams):
        for part, step in ((1.0, h), (1.0j, h)):
            plus = params.copy()
            plus[i] += part * step
            minus = params.copy()
            minus[i] -= part * step
            d = (residual(problem, plus) - residual(problem, minus)) / (2 * step)
            out[i] += d * (1.0 if part == 1.0 else 1.0j)
    return out


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12345)
    for trial in range(30):
        nv = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        s = int(rng.integers(1, 4))
        exps = [0] * nv
        for _ in range(d * k):
            exps[int(rng.integers(nv))] += 1
        problem = SearchProblem(Monomial(tuple(exps)), k, s)
        params = (rng.uniform(-1, 1, problem.nparams)
                  + 1j * rng.uniform(-1, 1, problem.nparams))
        g = gradient(problem, params)
        fd = _fd_gradient(problem, params)
        rel = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
        assert rel < 1e-6, (trial, rel)


def test_search_validation():
    p = SearchProblem(Monomial((1, 1)), 2, 2)
    with pytest.raises(ValueError):
        search(p, restarts=0)
    with pytest.raises(ValueError):
        search(p, tolerance=0.0)
    with pytest.raises(ValueError, match="seed"):
        search(p, seed=-1)


def test_search_converges_on_easy_problem():
    p = SearchProblem(Monomial((1, 1)), 2, 2)
    result = search(p, restarts=10, tolerance=1e-10, seed=0)
    assert result.converged
    assert result.best_residual < 1e-10
    assert residual(p, result.best_params) < 1e-18


def test_search_is_deterministic():
    p = SearchProblem(Monomial((2, 1, 1)), 2, 3)
    a = search(p, restarts=3, tolerance=1e-10, seed=42)
    b = search(p, restarts=3, tolerance=1e-10, seed=42)
    assert a.best_residual == b.best_residual
    assert a.restarts_used == b.restarts_used
    assert np.array_equal(a.best_params, b.best_params)


def test_search_restart_prefix_stability():
    # once converged, extra allowed restarts change nothing
    p = SearchProblem(Monomial((1, 1)), 2, 2)
    a = search(p, restarts=10, tolerance=1e-10, seed=7)
    b = search(p, restarts=50, tolerance=1e-10, seed=7)
    assert a.converged and b.converged
    assert a.restarts_used == b.restarts_used
    assert a.best_residual == b.best_residual


def _random_problem(rng):
    nv = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, 6))
    s = int(rng.integers(1, 4))
    exps = [0] * nv
    for _ in range(d * k):
        exps[int(rng.integers(nv))] += 1
    problem = SearchProblem(Monomial(tuple(exps)), k, s)
    params = (rng.uniform(-1, 1, problem.nparams)
              + 1j * rng.uniform(-1, 1, problem.nparams)) / (1 + d)
    return problem, params


def _monomials_at(basis, x):
    return np.prod(x ** np.array(basis), axis=1)


def test_residual_vector_matches_pointwise_evaluation():
    # sum_i r_i x^out_basis[i] must equal sum_j G_j(x)^k - M(x) at any point x
    rng = np.random.default_rng(31337)
    for trial in range(40):
        problem, params = _random_problem(rng)
        r = residual_vector(problem, params)
        coeffs = params.reshape(problem.s, -1)
        for _ in range(3):
            x = rng.uniform(0.5, 1.0, problem.nvars) * np.exp(
                2j * np.pi * rng.uniform(size=problem.nvars))
            forms = coeffs @ _monomials_at(problem.form_basis, x)
            direct = np.sum(forms ** problem.k) - np.prod(
                x ** np.array(problem.target.exponents))
            terms = r * _monomials_at(problem.out_basis, x)
            assert abs(np.sum(terms) - direct) <= 1e-12 * (1.0 + np.sum(np.abs(terms))), trial


def test_jacobian_matches_central_differences():
    # the residual is holomorphic in the parameters, so a real step suffices
    rng = np.random.default_rng(4242)
    h = 1e-5
    for trial in range(25):
        problem, params = _random_problem(rng)
        J = _jacobian(problem, params)
        fd = np.empty_like(J)
        for i in range(problem.nparams):
            step = np.zeros(problem.nparams)
            step[i] = h
            fd[:, i] = (residual_vector(problem, params + step)
                        - residual_vector(problem, params - step)) / (2 * h)
        assert np.max(np.abs(fd - J)) <= 1e-6 * max(1.0, np.max(np.abs(J))), trial


def test_jacobian_matches_pointwise_evaluation():
    # column j*B+b of J holds the coefficients of d(G_j^k)/d(coeff b of G_j), so
    # sum_i J[i, j*B+b] x^out_basis[i] = k G_j(x)^(k-1) x^form_basis[b] at any point x
    rng = np.random.default_rng(2024)
    for trial in range(40):
        problem, params = _random_problem(rng)
        J = _jacobian(problem, params)
        coeffs = params.reshape(problem.s, -1)
        for _ in range(3):
            x = rng.uniform(0.5, 1.0, problem.nvars) * np.exp(
                2j * np.pi * rng.uniform(size=problem.nvars))
            forms = coeffs @ _monomials_at(problem.form_basis, x)
            direct = np.outer(problem.k * forms ** (problem.k - 1),
                              _monomials_at(problem.form_basis, x)).ravel()
            terms = J * _monomials_at(problem.out_basis, x)[:, None]
            assert np.all(np.abs(terms.sum(axis=0) - direct)
                          <= 1e-12 * (1.0 + np.abs(terms).sum(axis=0))), trial


def test_restart_records_match_verdict():
    for exps, k, s, restarts in (((1, 1), 2, 2, 10), ((1, 2), 3, 2, 2),
                                 ((2, 2), 4, 2, 2)):
        result = search(SearchProblem(Monomial(exps), k, s), restarts=restarts, seed=0)
        stops = [record.stop for record in result.restarts]
        assert len(stops) == result.restarts_used
        assert set(stops) <= {"converged", "stalled", "max_iter", "no_step"}
        if result.converged:
            assert stops[-1] == "converged" and "converged" not in stops[:-1]
        else:
            assert "converged" not in stops
        assert result.best_residual == min(r.residual for r in result.restarts)
        assert all(0 <= r.iterations <= 500 and r.damping > 0 for r in result.restarts)
        best = min(range(len(stops)), key=lambda i: result.restarts[i].residual)
        assert result.restarts[best].max_coeff == np.max(np.abs(result.best_params))
        # accepted steps only lower the norm
        assert all(r.decay >= 0 and math.isfinite(r.max_coeff) for r in result.restarts)
        assert all(r.decay > 0 for r in result.restarts if r.stop == "converged")


def test_restart_decay_spans_the_last_stall_window(monkeypatch):
    # fewer accepted steps than the window: the drop since the start, per step
    problem = SearchProblem(Monomial((1, 1)), 2, 2)
    start = np.full(problem.nparams, 0.3 + 0.1j)
    _, record = _lm_minimize(problem, start, 1e-10)
    assert record.stop == "converged" and 0 < record.iterations < search_module.STALL_ITERS
    drop = math.log10(residual(problem, start) ** 0.5) - math.log10(record.residual)
    assert record.decay == pytest.approx(drop / record.iterations, rel=1e-12)
    # a full run: the drop over its last STALL_ITERS steps, read from a run cut that
    # many steps earlier from the same start
    problem = SearchProblem(Monomial((1, 2)), 3, 2)
    start = np.linspace(-0.5, 0.5, problem.nparams) * (1 + 0.5j)
    _, full = _lm_minimize(problem, start, 1e-10)
    assert full.stop == "max_iter"
    window = search_module.STALL_ITERS
    monkeypatch.setattr(search_module, "MAX_ITER", search_module.MAX_ITER - window)
    _, cut = _lm_minimize(problem, start, 1e-10)
    drop = math.log10(cut.residual) - math.log10(full.residual)
    assert full.decay == pytest.approx(drop / window, rel=1e-12)


def test_damped_solve_matches_augmented_lstsq():
    # The reference is lstsq on [J; sqrt(lam) I] d = [b; 0].  At lam = 1e40 that solve
    # returns exactly zero (sqrt(lam) swamps J), so there the reference is
    # (J^H J + lam I)^-1 J^H b, whose matrix has condition ~1 at that damping.  The
    # rank-deficient J gets b in its range: otherwise rounding in J's zero singular
    # values moves the minimiser by about |b| * 1e-16 |J| / lam, whatever the method.
    rng = np.random.default_rng(2718)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    tall, wide, deficient = gaussian(12, 5), gaussian(4, 9), gaussian(10, 3) @ gaussian(3, 7)
    for shape, J, b in (("tall", tall, gaussian(12)), ("wide", wide, gaussian(4)),
                        ("rank-deficient", deficient, deficient @ gaussian(7))):
        n = J.shape[1]
        U, sig, Vh = np.linalg.svd(J, full_matrices=False)
        for lam in (1e-6, 1e-3, 1.0, 1e40):
            if lam < 1e40:
                aug = np.vstack([J, lam ** 0.5 * np.eye(n)])
                expected, *_ = np.linalg.lstsq(aug, np.concatenate([b, np.zeros(n)]), rcond=None)
            else:
                expected = np.linalg.solve(J.conj().T @ J + lam * np.eye(n), J.conj().T @ b)
            got = _damped_solve(Vh.conj().T, _damping_filter(sig, lam), U.conj().T @ b)
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected), (shape, lam)


def _counting(calls, name, original):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    return wrapper


def test_one_svd_per_jacobian_and_no_lstsq(monkeypatch):
    calls = []
    for name in ("_jacobian", "_damping_filter"):
        monkeypatch.setattr(search_module, name,
                            _counting(calls, name, getattr(search_module, name)))
    monkeypatch.setattr(np.linalg, "svd", _counting(calls, "svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "lstsq", _counting(calls, "lstsq", np.linalg.lstsq))
    result = search(SearchProblem(Monomial((1, 3)), 2, 1), restarts=1, seed=0)
    assert result.restarts[0].stop == "no_step"
    assert calls.count("svd") == calls.count("_jacobian") > 0
    # each attempt solves for its step once, with the damping filter of its lambda:
    # the last factorisation served all 16 rejected attempts
    last = len(calls) - calls[::-1].index("svd")
    assert calls[last:] == ["_damping_filter"] * 16
    assert "lstsq" not in calls


def test_skipping_steps_that_cannot_move_is_exact(monkeypatch):
    # An attempt whose step rounds away is rejected without evaluating it; with the
    # skip switched off, every no_step search of the pinned list ends the same.
    def no_step_runs():
        for exps, k, s in FAILS:
            result = search(SearchProblem(Monomial(exps), k, s), restarts=1, seed=0)
            if result.restarts[0].stop == "no_step":
                yield (exps, k, s), result

    skipping = dict(no_step_runs())
    assert ((1, 3), 2, 1) in skipping
    monkeypatch.setattr(search_module, "_cannot_move", lambda params, moved: False)
    evaluating = dict(no_step_runs())
    monkeypatch.undo()
    assert evaluating.keys() == skipping.keys()
    for problem, result in evaluating.items():
        assert result.restarts == skipping[problem].restarts, problem
        assert result.best_params.tobytes() == skipping[problem].best_params.tobytes(), problem

    calls = []
    for name in ("_jacobian", "residual_vector"):
        monkeypatch.setattr(search_module, name,
                            _counting(calls, name, getattr(search_module, name)))
    search(SearchProblem(Monomial((1, 3)), 2, 1), restarts=1, seed=0)
    last = len(calls) - calls[::-1].index("_jacobian")
    # three evaluations per attempt that is not skipped, of 16
    assert calls[last:].count("residual_vector") < 3 * 16


# Verdicts at restarts=1, seed=0: every problem with 2-3 variables, d = 1..2,
# k = 2..4, s in [max(1, lower-1), upper] and at most 9 parameters, plus the
# criterion-10 problems ((1, 2), k=3, s=2 and (2, 2), k=4, s=3 are in the grid).
CONVERGES = [
    ((1, 1), 2, 2), ((1, 2), 3, 3), ((2, 1), 3, 3), ((1, 3), 4, 4), ((2, 2), 4, 3),
    ((3, 1), 4, 4), ((1, 3), 2, 2), ((3, 1), 2, 2), ((1, 5), 3, 3), ((2, 4), 3, 3),
    ((3, 3), 3, 1), ((4, 2), 3, 3), ((5, 1), 3, 3), ((4, 4), 4, 1),
]
FAILS = [
    ((1, 1), 2, 1), ((1, 2), 3, 2), ((2, 1), 3, 2), ((1, 3), 4, 3), ((2, 2), 4, 2),
    ((3, 1), 4, 3), ((1, 3), 2, 1), ((2, 2), 2, 1), ((3, 1), 2, 1), ((1, 5), 3, 2),
    ((2, 4), 3, 2), ((4, 2), 3, 2), ((5, 1), 3, 2), ((1, 7), 4, 3), ((2, 6), 4, 2),
    ((2, 6), 4, 3), ((3, 5), 4, 3), ((5, 3), 4, 3), ((6, 2), 4, 2), ((6, 2), 4, 3),
    ((7, 1), 4, 3), ((1, 1, 1), 3, 3), ((1, 1, 2), 2, 1), ((1, 2, 1), 2, 1),
    ((2, 1, 1), 2, 1), ((4, 1, 1), 3, 3),
]


def test_single_restart_verdicts_are_pinned():
    for expected, problems in ((True, CONVERGES), (False, FAILS)):
        for exps, k, s in problems:
            result = search(SearchProblem(Monomial(exps), k, s), restarts=1, seed=0)
            assert result.converged is expected, (exps, k, s, result.best_residual)
            assert result.restarts_used == 1


def test_k4_s3_single_restart_flags_are_pinned():
    # open cases of the paper at k=4, s=3: the flags the search gives at restarts=1
    for exps, seed, expected in (((1, 11), 0, True), ((1, 11), 1, True), ((1, 11), 2, False),
                                 ((3, 9), 0, True), ((5, 7), 0, False), ((5, 7), 1, False)):
        result = search(SearchProblem(Monomial(exps), 4, 3), restarts=1, seed=seed)
        assert result.converged is expected, (exps, seed, result.best_residual)

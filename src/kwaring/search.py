"""Floating-point power-sum search via damped least squares.

The exact modules prove bounds; this one probes them numerically.  A search
problem fixes a monomial M of degree k*d and a summand count s, and asks for
complex degree-d forms G_1..G_s minimizing the squared coefficient mismatch

    E(G) = sum over degree-kd monomials of |coeff(sum_j G_j^k) - coeff(M)|^2.

Parameters are the s coefficient vectors over the full degree-d monomial
basis, flattened to one complex vector.  Residuals live on the degree-kd
basis.  The Jacobian of the residual in the coefficient of basis monomial mu
of summand j is k * (G_j^{k-1} shifted by mu), which is exact, so the damped
Gauss-Newton (Levenberg-Marquardt) step needs no numeric differentiation.
``residual`` returns E itself; ``gradient`` follows the convention that E is
a real function of the real and imaginary parts independently: g = 2 J^H r,
whose real/imaginary parts are the partial derivatives up to the standard
factor.  Because the residual is holomorphic in the parameters, complex
normal equations coincide with real ones on interleaved (re, im) pairs.

Powers are evaluated from tables that each problem builds on first use and
keeps, from the shared ``polynomials.multinomial_table``.  For p in {k, k-1}
a table lists every p-multiset of form-basis positions with its multinomial
weight, sorted by the position of its product monomial in the degree-pd
basis.  One kernel serves both powers: it gathers the p coefficients of each
row from the parameter vector (the multiset's members on the leading axis,
so the product multiplies whole slabs), weights the products and sums each
monomial's segment of rows with one ``np.add.reduceat``.  For the residual a
segment spans the monomial's multisets in all summands.  For the Jacobian
each summand has its own segments, k is folded into the weights, and one
zero-weight row ends each summand's list, so that J is read off the result
with one gather: the entry of column j*B+b in the row of monomial m is the
coefficient of m / x^b in k G_j^{k-1}, or that zero where x^b does not
divide m.

Minimizer policy (all deterministic):
  * one thin SVD J = U diag(sig) V^H per iteration serves the damped solves
    of all its attempts: min |[J; sqrt(l) I] d + [b; 0]| is attained at
    d = -V (sig / (sig^2 + l) * U^H b) for any shape or rank of J; J^H J is
    never formed, so the conditioning stays cond(J), not cond(J)^2.  U^H, V
    and U^H r are formed once per SVD, the filter sig / (sig^2 + l) once per
    attempt;
  * the damping l follows a gain-ratio schedule (divide by up to 3 on a
    good step, multiply by a doubling factor on rejection);
  * each step adds a geodesic-acceleration correction (second directional
    derivative of the residual along the step, by central differences),
    dropped when it exceeds 3/4 of the step length - this is what makes the
    flat valleys around scale-degenerate solutions converge in tens rather
    than thousands of iterations;
  * an attempt after the first whose step rounds away (params + delta equals
    params) is rejected without evaluating residuals: params +- h delta equal
    params too, so the correction is zero and the trial is params itself;
    the damping grows as for any rejection, so the outcome is unchanged;
  * a restart stops after 500 iterations, or when the residual norm improves
    by less than 1e-14 over 25 consecutive iterations;
  * each restart leaves a RestartRecord: accepted steps, stop reason
    (converged, stalled, max_iter or no_step), final residual norm, final
    damping, largest final |coefficient|, and the drop in log10 of the
    residual norm per accepted step over the last 25 (or all, if fewer)
    accepted steps.

Convergence means the Euclidean NORM of the mismatch vector (sqrt of E)
fell below the tolerance.  The norm is the reported best_residual.  This is
deliberately strict: squared-sum tolerances are crossed by border
approximations (summands that diverge as the error tends to zero), which
would make "never converges below the lower bound" meaningless.  With the
norm semantics those approximations plateau orders of magnitude above
tolerance at desk-scale iteration budgets while genuine decompositions pass
through it quadratically.

Multi-start: restart r draws its init from SeedSequence([seed, r]) with
independent real/imaginary parts uniform in [-1, 1] scaled by 1/(1+d), so
runs with the same seed are bit-reproducible and prefixes agree across
different restart counts.  A search that never dips below tolerance reports
converged=False, which is evidence (not proof) that no rank-s decomposition
exists.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polynomials import Monomial, multinomial_table

# Per-restart limits of the minimizer (see "Minimizer policy" above).
MAX_ITER = 500
STALL_ITERS = 25


def _degree_basis(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographic: the
    multinomial table's counts read bottom up."""
    return [tuple(row) for row in multinomial_table(nvars, degree)[1][::-1].tolist()]


class SearchProblem:
    """Target monomial, power k, summand count s, and the two monomial bases."""

    def __init__(self, target: Monomial, k: int, s: int):
        if k < 2:
            raise ValueError("k must be >= 2")
        if s < 1:
            raise ValueError("s must be >= 1")
        if target.degree == 0 or target.degree % k != 0:
            raise ValueError("k must divide the (positive) degree of the target")
        self.target = target
        self.k = k
        self.s = s
        self.d = target.degree // k
        self.nvars = target.nvars
        self.form_basis = _degree_basis(self.nvars, self.d)
        self.out_basis = _degree_basis(self.nvars, target.degree)
        self.form_index = {e: i for i, e in enumerate(self.form_basis)}
        self.out_index = {e: i for i, e in enumerate(self.out_basis)}
        self.nparams = s * len(self.form_basis)
        self.target_vec = np.zeros(len(self.out_basis), dtype=complex)
        self.target_vec[self.out_index[target.exponents]] = 1.0

    @cached_property
    def _power_table(self):
        """G^k over the degree-kd basis, as (gather, weights, starts), with the
        s summands of each multiset side by side so that each segment also sums
        over summands."""
        positions, weights, starts = self._multisets(self.k, self.out_index)
        gather = positions.T[:, :, None] + len(self.form_basis) * np.arange(self.s)
        return gather.reshape(self.k, -1), np.repeat(weights, self.s), starts * self.s

    @cached_property
    def _jacobian_table(self):
        """k G_j^(k-1) over the degree-(k-1)d basis, as (gather, weights, starts)
        with one segment list per summand, each ending in a zero entry (one
        more multiset, of weight 0); and the source of each entry of J in the
        (s, L+1) result: entry [i, j*B+b] is k times the coefficient in
        G_j^(k-1) of x^out_basis[i] divided by x^form_basis[b], or the zero
        entry where that is no monomial."""
        lower = _degree_basis(self.nvars, (self.k - 1) * self.d)
        positions, weights, starts = self._multisets(self.k - 1,
                                                     {e: i for i, e in enumerate(lower)})
        positions = np.vstack([positions, positions[:1]])
        weights = np.append(self.k * weights, 0)
        starts = np.append(starts, len(weights) - 1)
        B, L = len(self.form_basis), len(lower)
        gather = positions.T[:, None, :] + B * np.arange(self.s)[:, None]
        starts = starts + len(weights) * np.arange(self.s)[:, None]
        shifted = np.asarray(self.form_basis)[:, None, :] + np.asarray(lower)[None, :, :]
        rows = [[self.out_index[e] for e in map(tuple, row)] for row in shifted.tolist()]
        source = np.full((len(self.out_basis), 1, B), L)
        # Multiplying by x^b is injective, so no two monomials meet in one entry.
        source[rows, 0, np.arange(B)[:, None]] = np.arange(L)
        source = source + (L + 1) * np.arange(self.s)[:, None]
        return (gather.reshape(self.k - 1, -1), np.tile(weights, self.s), starts.ravel(),
                source.reshape(len(self.out_basis), self.nparams))

    def _multisets(self, power: int, index):
        """Every power-multiset of form-basis positions, grouped by the position
        in ``index`` of its product monomial: the positions (M, power), the
        multinomial weights (complex), and where each monomial's group starts.
        Every degree-(power d) monomial is a product of power degree-d ones,
        so no group is empty."""
        positions, _, multinomials = multinomial_table(len(self.form_basis), power)
        exponents = np.asarray(self.form_basis)[positions].sum(axis=1)
        targets = np.array([index[e] for e in map(tuple, exponents.tolist())], dtype=np.intp)
        order = np.argsort(targets, kind="stable")
        return (positions[order], np.array(multinomials, dtype=complex)[order],
                np.searchsorted(targets[order], np.arange(len(index))))


def _segment_sums(params, gather, weights, starts):
    """Per segment of the table, the sum of weight times the product of the
    gathered parameters."""
    return np.add.reduceat(params[gather].prod(axis=0) * weights, starts)


def residual_vector(problem: SearchProblem, params):
    """Residuals on the degree-kd basis: coefficients of sum G_j^k - M."""
    params = np.asarray(params, dtype=complex)
    if params.shape != (problem.nparams,):
        raise ValueError("parameter vector has wrong length")
    return _segment_sums(params, *problem._power_table) - problem.target_vec


def residual(problem: SearchProblem, params) -> float:
    r = residual_vector(problem, params)
    return float(np.real(np.vdot(r, r)))


def _jacobian(problem: SearchProblem, params):
    """J[i, j*B+b] = d residual_i / d params[j*B+b] = k * coeff of G_j^{k-1}
    shifted by basis monomial b."""
    *table, source = problem._jacobian_table
    return _segment_sums(np.asarray(params, dtype=complex), *table)[source]


def gradient(problem: SearchProblem, params):
    """Wirtinger-style gradient of the squared residual: 2 J^H r.

    Real and imaginary parts are the exact partial derivatives of E with
    respect to the real and imaginary parts of each parameter.
    """
    r = residual_vector(problem, params)
    J = _jacobian(problem, params)
    return 2.0 * (J.conj().T @ r)


@dataclass(frozen=True)
class RestartRecord:
    """How one restart of the minimizer ended."""
    iterations: int  # accepted steps
    stop: str  # converged, stalled, max_iter or no_step
    residual: float  # final residual norm
    damping: float  # final damping lambda
    max_coeff: float  # largest |parameter| at the end
    decay: float  # log10 residual-norm drop per accepted step, last STALL_ITERS steps


@dataclass(frozen=True)
class SearchResult:
    best_residual: float  # Euclidean norm of the best mismatch vector
    best_params: np.ndarray
    converged: bool
    restarts_used: int
    restarts: tuple = ()  # one RestartRecord per restart run


def _damping_filter(sig, lam: float):
    """Weights of the damped solve on the singular directions: sig / (sig^2 + lam)."""
    return sig / (sig * sig + lam)


def _damped_solve(V, filt, c):
    """argmin over d of |J d - b|^2 + lam |d|^2, given J = U diag(sig) V^H,
    filt = _damping_filter(sig, lam) and c = U^H b."""
    return V @ (filt * c)


def _cannot_move(params, moved) -> bool:
    """Whether params + delta rounded back to params.  Then so do params +-
    h delta (|h| < 1), the second difference is exactly zero, and the trial is
    params itself, whose residual is no lower: the attempt is a rejection."""
    return bool((moved == params).all())


def _norm(x) -> float:
    """np.linalg.norm of a complex vector, by numpy's own formula."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _lm_minimize(problem: SearchProblem, start, tolerance: float):
    """One damped least-squares descent; returns (params, RestartRecord)."""
    params = np.asarray(start, dtype=complex).copy()
    r = residual_vector(problem, params)
    err = float(np.real(np.vdot(r, r)))
    norm = err ** 0.5
    lam, nu = 1e-3, 2.0
    h = 0.1
    best_recent = norm
    recent = deque([norm], maxlen=STALL_ITERS + 1)  # norms before and after the last steps
    since_improved = 0
    iterations = 0
    stop = "max_iter"
    for _ in range(MAX_ITER):
        if norm < tolerance:
            break
        J = _jacobian(problem, params)
        U, sig, Vh = np.linalg.svd(J, full_matrices=False)
        Uh, V = U.conj().T, Vh.conj().T
        c = Uh @ -r  # the step solves min |J d + r|
        stepped = False
        for attempt in range(16):
            filt = _damping_filter(sig, lam)
            delta = _damped_solve(V, filt, c)
            moved = params + delta
            # a step is tested only after a rejection has raised the damping
            if not (attempt and _cannot_move(params, moved)):
                hd = h * delta
                r_plus = residual_vector(problem, params + hd)
                r_minus = residual_vector(problem, params - hd)
                # -0.5 times the second difference: dividing by -2 h^2 scales exactly
                minus_half = (r_plus - 2.0 * r + r_minus) / (-2.0 * h * h)
                accel = _damped_solve(V, filt, Uh @ minus_half)
                if _norm(accel) > 0.75 * _norm(delta):
                    accel = 0.0
                trial = moved + accel
                r_trial = residual_vector(problem, trial)
                err_trial = float(np.vdot(r_trial, r_trial).real)
                if err_trial < err:
                    linear = r + J @ delta
                    predicted = err - float(np.vdot(linear, linear).real)
                    ratio = (err - err_trial) / predicted if predicted > 0 else 0.5
                    params, r, err = trial, r_trial, err_trial
                    norm = err ** 0.5
                    lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 1e-16)
                    nu = 2.0
                    stepped = True
                    break
            lam *= nu
            nu *= 2.0
        if not stepped:
            stop = "no_step"
            break
        iterations += 1
        recent.append(norm)
        if best_recent - norm > 1e-14:
            best_recent = norm
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= STALL_ITERS:
                stop = "stalled"
                break
    if norm < tolerance:
        stop = "converged"
    decay = 0.0
    if iterations:  # accepted steps only lower the norm, so recent[0] > 0
        drop = math.log10(recent[0]) - math.log10(max(recent[-1], sys.float_info.min))
        decay = drop / (len(recent) - 1)
    return params, RestartRecord(iterations, stop, norm, lam,
                                 float(np.max(np.abs(params))), decay)


def search(problem: SearchProblem, restarts: int = 50, tolerance: float = 1e-10,
           seed: int = 0) -> SearchResult:
    """Multi-start damped least squares; deterministic for a given seed."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    best_norm = float("inf")
    best_params = np.zeros(problem.nparams, dtype=complex)
    records = []
    scale = 1.0 / (1.0 + problem.d)
    for ridx in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, ridx]))
        re = rng.uniform(-1.0, 1.0, problem.nparams)
        im = rng.uniform(-1.0, 1.0, problem.nparams)
        start = (re + 1j * im) * scale
        params, record = _lm_minimize(problem, start, tolerance)
        records.append(record)
        if record.residual < best_norm:
            best_norm = record.residual
            best_params = params
        if best_norm < tolerance:
            break
    return SearchResult(
        best_residual=best_norm,
        best_params=best_params,
        converged=best_norm < tolerance,
        restarts_used=len(records),
        restarts=tuple(records),
    )


def params_from_certificate(problem: SearchProblem, cert) -> np.ndarray:
    """Flatten an exact certificate into a parameter vector, folding each
    scalar into its form via a complex k-th root."""
    if len(cert.summands) != problem.s:
        raise ValueError("certificate summand count differs from problem")
    if cert.target != problem.target or cert.k != problem.k:
        raise ValueError("certificate does not match problem")
    roots = cert.tower.complex_roots()
    B = len(problem.form_basis)
    params = np.zeros(problem.nparams, dtype=complex)
    for j, (scalar, form) in enumerate(cert.summands):
        factor = complex(scalar.evaluate(roots)) ** (1.0 / problem.k)
        for e, c in form.terms.items():
            params[j * B + problem.form_index[e]] = factor * complex(c.evaluate(roots))
    return params


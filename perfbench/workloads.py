"""The three closed-loop workloads.

Each workload turns the benchmark seed into one list of operations, runs one
operation at a time through kwaring's public entry points (one client, no
threads), and checks every result with ``checker``, which shares no code with
kwaring's exact expansion.  A run repeats that list in rounds, so a traced
run replays exactly the operations an untraced run timed, and each
operation's time can be taken over several rounds (see ``run``).

Random streams, all derived from the seed: 1 inputs, 2 checks, 3 order of
each round.  The timed operations leave out the instances of a known defect
(``Workload.known_defect_ops``), so that no timed operation is expected to
fail; those instances run once per timed run, untimed, and their outcome is
reported on its own.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
from time import perf_counter

import numpy as np

import checker


class Failure:
    """An operation that did not deliver the expected result.

    Every failure is ``wrong``, and makes the run incorrect, except the known
    defect of ``decompose`` (see ``known_defect``), which is reported apart
    from the timed operations.
    """

    def __init__(self, reason: str, wrong: bool):
        self.reason = reason
        self.wrong = wrong


def compositions(total: int, parts: int):
    """All exponent vectors of ``parts`` positive entries summing to ``total``."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def run_cli(cli, argv):
    """Call ``kwaring.cli.main`` as a user would.

    Returns (exit code, stdout, stderr, seconds inside ``main``)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        t1 = perf_counter()
    return code, out.getvalue(), err.getvalue(), t1 - t0


class Workload:
    """Base: a seeded list of operations, how to run them, and their checks."""

    name = ""

    def __init__(self, kw, seed: int, workdir: str):
        self.kw = kw
        self.seed = seed
        self.workdir = workdir
        self.setup_failures = []

    def build(self) -> None:
        """Set-up work beyond input generation (pools, files)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> list:
        """The run's operations, a fixed function of the seed."""
        raise NotImplementedError

    def run_op(self, op):
        """Run one operation; returns (outcome, seconds spent in kwaring)."""
        raise NotImplementedError

    def check(self, op, outcome, rng):
        """None when the outcome is right, else a Failure."""
        raise NotImplementedError

    def digest_item(self, op, outcome) -> bytes:
        raise NotImplementedError

    def summary(self, results) -> dict:
        """Extra figures from one round's (op, outcome) pairs."""
        return {}

    def known_defect_ops(self) -> list:
        """Operations kwaring is known to fail today.  They are left out of
        ``round_ops`` and run once, untimed, so the defect stays visible."""
        return []


# ---------------------------------------------------------------------------
# decompose-sweep: the write path (classify, construct, verify, serialize)


def known_defect(k, exps) -> bool:
    """The one instance family ``decompose`` is known to refuse today: k = 6
    with exponent residues (4, 4, 4), which exits 2.  Every other non-zero
    exit is a wrong result."""
    return k == 6 and sorted(e % k for e in exps) == [4, 4, 4]


class DecomposeSweep(Workload):
    """Six instances per (k, degree, variables) cell: k = 2..6, degree k or
    2k, 1-4 variables, positive exponents.  Within a cell the draws are a
    systematic sample, evenly spaced from a seeded offset, of the instances
    sorted by residue pattern (a cost proxy), so every run gets the same
    spread of cheap and costly instances.  The one known-defect instance of
    this space, k = 6 on x0^4 x1^4 x2^4, is not drawn but run on its own."""

    name = "decompose-sweep"
    DRAWS_PER_CELL = 6

    def __init__(self, kw, seed, workdir):
        super().__init__(kw, seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.cells = []
        for k in range(2, 7):
            for degree in (k, 2 * k):
                for nvars in range(1, 5):
                    if nvars > degree:
                        continue
                    insts = sorted(
                        (e for e in compositions(degree, nvars)
                         if not known_defect(k, e)),
                        key=lambda e, k=k: (sum(x % k for x in e),
                                            sorted(x % k for x in e), e),
                    )
                    self.cells.append((k, insts, float(rng.random())))
        self.out_path = os.path.join(workdir, "decompose.cert")
        self._upper: dict = {}

    def known_defect_ops(self):
        return [(6, (4, 4, 4))]

    def warm_up(self):
        for k in range(2, 7):
            self.run_op((k, (1, k - 1)))

    def round_ops(self):
        m = self.DRAWS_PER_CELL
        return [(k, insts[int(((u + j / m) % 1.0) * len(insts))])
                for j in range(m) for k, insts, u in self.cells]

    def run_op(self, op):
        k, exps = op
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        monomial = " ".join(f"x{i}^{e}" for i, e in enumerate(exps))
        argv = ["decompose", "-k", str(k), monomial, "--out", self.out_path]
        code, out, err, dt = run_cli(self.kw.cli, argv)
        text = None
        if code == 0 and os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return (code, out, err, text), dt

    def upper(self, k, exps):
        key = (k, exps)
        if key not in self._upper:
            inst = self.kw.rank.KInstance(self.kw.polynomials.Monomial(exps), k)
            self._upper[key] = self.kw.rank.classify(inst).upper
        return self._upper[key]

    def check(self, op, outcome, rng):
        k, exps = op
        code, out, err, text = outcome
        if code != 0:
            return Failure(f"{op}: exit {code}: {err.strip()[:120]}",
                           wrong=not (code == 2 and known_defect(k, exps)))
        if text is None:
            return Failure("exit 0 but no certificate written", wrong=True)
        certfile = self.kw.certfile
        try:
            cert = certfile.parse(text)
        except ValueError as exc:
            return Failure(f"written certificate does not parse: {exc}", wrong=True)
        if certfile.serialize(cert) != text:
            return Failure("serialize(parse(text)) != text", wrong=True)
        if cert.k != k or cert.target.exponents != exps:
            return Failure("certificate is for another instance", wrong=True)
        upper = self.upper(k, exps)
        if cert.summand_count != upper:
            return Failure(f"{cert.summand_count} summands, classify upper {upper}",
                           wrong=True)
        if f"({upper} summands)" not in out:
            return Failure(f"stdout does not report {upper} summands", wrong=True)
        miss = checker.certificate_mismatch(cert, rng)
        if not miss <= checker.MATCH_TOL:
            return Failure(f"certificate misses its target by {miss:.3e}", wrong=True)
        return None

    def digest_item(self, op, outcome):
        k, exps = op
        text = outcome[3] or f"exit {outcome[0]}\n"
        return f"{k} {exps}\n".encode() + text.encode()


# ---------------------------------------------------------------------------
# verify-certs: the read path (parse, verify) over a fixed certificate pool


class VerifyCerts(Workload):
    """Pool: every criterion-02 grid certificate with at most three parts, the
    sorted representative of each four-part grid exponent multiset that
    contains a 1, product_linear(4..6) and special_x04x1x2.  A third as many
    again are seeded single-digit corruptions of a coefficient, so about a
    quarter of the files must be rejected."""

    name = "verify-certs"

    def __init__(self, kw, seed, workdir):
        super().__init__(kw, seed, workdir)
        self.rng = np.random.default_rng([seed, 1])
        self.pool = []  # (label, path, expected exit codes)
        self.texts = []

    def intact_certificates(self):
        """(label, certificate) pairs, built by the public constructors."""
        decomp = self.kw.decomp
        grid = [e for n in range(1, 4) for e in itertools.product(range(1, 4), repeat=n)]
        grid += sorted({tuple(sorted(e)) for e in itertools.product(range(1, 4), repeat=4)
                        if 1 in e})
        out = [(f"grid {e}", decomp.monomial_linear_decomp(e)) for e in grid]
        out += [(f"product_linear({k})", decomp.product_linear(k)) for k in range(4, 7)]
        out.append(("special_x04x1x2", decomp.special_x04x1x2()))
        return out

    def build(self):
        serialize = self.kw.certfile.serialize
        written = []
        for label, cert in self.intact_certificates():
            miss = checker.certificate_mismatch(cert, self.rng)
            if not miss <= checker.MATCH_TOL:
                self.setup_failures.append(f"{label} misses its target by {miss:.3e}")
            written.append((label, serialize(cert), cert))
        for label, text, _ in written:
            self._add(label, text, (0,))
        # Corrupt every third certificate in expansion-size order, so the
        # rejected files span small and large expansions alike.
        by_size = sorted(written, key=lambda w: (self.expansion_size(w[2]), w[0]))
        offset = int(self.rng.integers(3))
        for label, text, _ in by_size[offset::3]:
            self._add(f"corrupted {label}", self.corrupt(text), (1, 2))

    def _add(self, label, text, expected):
        path = os.path.join(self.workdir, f"pool{len(self.pool):03d}.cert")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.pool.append((label, path, expected))
        self.texts.append(text)

    @staticmethod
    def expansion_size(cert) -> int:
        """Leaf terms of the multinomial expansions verify has to form."""
        return sum(math.comb(cert.k + len(f.terms) - 1, len(f.terms) - 1)
                   for _, f in cert.summands)

    def corrupt(self, text: str) -> str:
        """Change one coefficient digit so that the file stays canonical and
        parses, but the identity it states is false (checked numerically)."""
        certfile = self.kw.certfile
        lines = text.split("\n")
        spots = []
        for i, line in enumerate(lines):
            if line.startswith("scalar: "):
                start = len("scalar: ")
            elif line.startswith("term: "):
                start = line.index(" :: ") + 4
            else:
                continue
            depth = 0
            for j in range(start, len(line)):
                ch = line[j]
                depth += ch == "("
                depth -= ch == ")"
                if depth and ch.isdigit():
                    spots.append((i, j))
        for _ in range(200):
            i, j = spots[int(self.rng.integers(len(spots)))]
            old = lines[i][j]
            new = str((int(old) + 1 + int(self.rng.integers(9))) % 10)
            candidate = lines[:]
            candidate[i] = lines[i][:j] + new + lines[i][j + 1:]
            candidate = "\n".join(candidate)
            try:
                cert = certfile.parse(candidate)
            except ValueError:
                continue
            if certfile.serialize(cert) != candidate:
                continue
            if checker.certificate_mismatch(cert, self.rng) >= checker.MISMATCH_TOL:
                return candidate
        raise RuntimeError("no single-digit corruption breaks this certificate")

    def warm_up(self):
        for op in self.pool[:3]:
            self.run_op(op)

    def round_ops(self):
        return list(self.pool)

    def run_op(self, op):
        code, out, err, dt = run_cli(self.kw.cli, ["verify", op[1]])
        return (code, out, err), dt

    def check(self, op, outcome, rng):
        label, _, expected = op
        code, out, err = outcome
        if code not in expected:
            return Failure(f"{label}: exit {code}, expected one of {expected}", wrong=True)
        if code == 0 and not out.startswith("verified: "):
            return Failure(f"{label}: exit 0 without a verified line", wrong=True)
        return None

    def digest_item(self, op, outcome):
        return f"{op[0]} -> {outcome[0]}\n".encode()


# ---------------------------------------------------------------------------
# search: numpy least-squares search, no exact arithmetic


SEARCH_RESTARTS = 1
SEARCH_SEED = 0  # kwaring's default
CRITERION_10 = (((4, 1, 1), 3, 3), ((2, 2), 4, 3), ((1, 2), 3, 2))


class Search(Workload):
    """Every problem with 2-3 variables, form degree d = 1..2, k = 2..4, each s
    in [lower-1, upper] (at least 1) and at most 9 parameters, plus the three
    criterion-10 problems.  Every search runs with a fixed restart cap and
    kwaring's default search seed, so an operation's work depends on its
    problem alone, not on restart luck; the benchmark seed orders the rounds."""

    name = "search"

    def __init__(self, kw, seed, workdir):
        super().__init__(kw, seed, workdir)
        rank, Monomial = kw.rank, kw.polynomials.Monomial
        self.bounds = {}
        self.problems = []
        for nvars in (2, 3):
            for d in (1, 2):
                basis = math.comb(nvars + d - 1, d)
                for k in (2, 3, 4):
                    for exps in compositions(k * d, nvars):
                        b = rank.classify(rank.KInstance(Monomial(exps), k))
                        self.bounds[(exps, k)] = (b.lower, b.upper)
                        self.problems += [(exps, k, s)
                                          for s in range(max(1, b.lower - 1), b.upper + 1)
                                          if s * basis <= 9]
        for exps, k, s in CRITERION_10:
            b = rank.classify(rank.KInstance(Monomial(exps), k))
            self.bounds[(exps, k)] = (b.lower, b.upper)
            self.problems.append((exps, k, s))

    def warm_up(self):
        self.run_op(((1, 1), 2, 2))

    def round_ops(self):
        return list(self.problems)

    def run_op(self, op):
        exps, k, s = op
        kw = self.kw
        t0 = perf_counter()
        problem = kw.search.SearchProblem(kw.polynomials.Monomial(exps), k, s)
        result = kw.search.search(problem, restarts=SEARCH_RESTARTS,
                                  tolerance=1e-10, seed=SEARCH_SEED)
        t1 = perf_counter()
        return (problem, result), t1 - t0

    def check(self, op, outcome, rng):
        exps, k, s = op
        problem, result = outcome
        lower, _ = self.bounds[(exps, k)]
        if result.converged != (result.best_residual < 1e-10):
            return Failure(f"{op}: verdict disagrees with its residual", wrong=True)
        if not result.converged:
            return None
        if s < lower:
            return Failure(f"{op}: converged below the lower bound {lower}", wrong=True)
        miss = checker.search_mismatch(exps, k, s, problem.form_basis,
                                       result.best_params, rng)
        if not miss <= checker.SEARCH_TOL:
            return Failure(f"{op}: converged result misses by {miss:.3e}", wrong=True)
        return None

    def digest_item(self, op, outcome):
        return f"{op} converged={outcome[1].converged}\n".encode()

    def summary(self, results):
        """Verdict figures of one round.  Searches use a fixed seed, so every
        round gives the same verdicts."""
        at_upper = [outcome[1].converged for op, outcome in results
                    if outcome is not None and op[2] >= self.bounds[op[:2]][1]]
        return {
            "converged_share": sum(at_upper) / len(at_upper) if at_upper else 0.0,
            "converged_share_base": len(at_upper),
            "restarts": sum(outcome[1].restarts_used for _, outcome in results
                            if outcome is not None),
        }


WORKLOADS = {cls.name: cls for cls in (DecomposeSweep, VerifyCerts, Search)}

"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest

import checker
import run
import workloads
from spans import SpanRecorder


class TinyDecompose(workloads.DecomposeSweep):
    def round_ops(self):
        return [(2, (1, 3)), (3, (4, 1, 1)), (4, (1, 1, 1, 1)), (5, (2, 3))]


class TinyVerify(workloads.VerifyCerts):
    def intact_certificates(self):
        decomp = self.kw.decomp
        return [("grid (1, 2)", decomp.monomial_linear_decomp((1, 2))),
                ("grid (1, 1, 2)", decomp.monomial_linear_decomp((1, 1, 2))),
                ("product_linear(4)", decomp.product_linear(4)),
                ("special_x04x1x2", decomp.special_x04x1x2())]


class TinySearch(workloads.Search):
    def round_ops(self):
        return [((1, 1), 2, 1), ((1, 1), 2, 2), ((2, 2), 4, 3)]


TINY = {"decompose-sweep": TinyDecompose, "verify-certs": TinyVerify,
        "search": TinySearch}


@pytest.fixture
def tiny(monkeypatch):
    for name, cls in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, cls)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def run_main(capsys, *argv):
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def kwaring():
    if str(run.SRC) not in run.sys.path:
        run.sys.path.insert(0, str(run.SRC))
    return run.Kwaring()


def assert_metric_lines(out, units):
    for name, unit in units.items():
        assert re.search(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$", out,
                         re.MULTILINE), name


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_timed_run_prints_every_end_to_end_metric(tiny, capsys, name):
    code, out, result = run_main(capsys, "--workload", name, "--seed", "5",
                                 "--seconds", "0.01", "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"] == {
        k: {"value": result["metrics"][k]["value"], "unit": u}
        for k, u in run.END_TO_END.items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert_metric_lines(out, run.END_TO_END)
    assert re.search(r"^metric failed_share = \S+ share", out, re.MULTILINE)
    assert re.search(r"^metric latency_tail_percentile = p", out, re.MULTILINE)
    if name == "search":
        assert re.search(r"^metric converged_share = \S+ share", out, re.MULTILINE)
    assert "rational_backend=" in out and "numpy=" in out and "cpu_count=" in out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_prints_every_per_layer_metric(tiny, capsys, name):
    code, out, result = run_main(capsys, "--workload", name, "--seed", "5",
                                 "--seconds", "0.01", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert_metric_lines(out, run.PER_LAYER)
    assert "trace replays counted equal calls: True" in out
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "decompose-sweep":
        assert metrics["decomp.verify.calls_per_op"] >= 2
        assert metrics["rank.classify.calls"] > 0
    if name == "verify-certs":
        assert metrics["decomp.verify.calls_per_op"] == 1
        assert metrics["certfile.bytes"] > 0
    if name == "search":
        assert metrics["search.residual_vector.calls"] > 0
        assert metrics["cli.main.self_ms"] == 0


def test_two_traced_replays_count_exactly_the_same():
    kw = kwaring()
    counts = []
    for _ in range(2):
        recorder = SpanRecorder()
        run.install(recorder, kw)
        try:
            recorder.active = True
            cert = kw.decomp.decompose(kw.rank.KInstance(kw.polynomials.Monomial((4, 1, 1)), 3))
            kw.certfile.parse(kw.certfile.serialize(cert))
        finally:
            recorder.active = False
            recorder.unpatch()
        counts.append(recorder.call_counts())
    assert counts[0] == counts[1]
    assert counts[0]["decomp.verify"] >= 2
    assert counts[0]["algebra.ring_mul"] > 0 and counts[0]["algebra.normalize"] > 0


def test_recorder_wraps_every_alias_and_computes_self_time():
    kw = kwaring()
    RingElement = kw.algebra.RingElement
    original = RingElement.__mul__
    recorder = SpanRecorder()
    run.install(recorder, kw)
    try:
        assert RingElement.__rmul__ is RingElement.__mul__ is not original
        assert kw.cli.verify is kw.decomp.verify
        assert kw.cli.verify.__wrapped__ is not None
    finally:
        recorder.unpatch()
    assert RingElement.__mul__ is original and RingElement.__rmul__ is original

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    recorder = SpanRecorder()
    wrapped_inner = recorder._wrap("inner", inner, None)
    wrapped_outer = recorder._wrap("outer", outer, None)
    recorder.active = True
    wrapped_outer()
    recorder.active = False
    layers = recorder.layers()
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 1
    assert layers["outer"]["self_ns"] == (layers["outer"]["total_ns"]
                                          - layers["inner"]["total_ns"])
    assert layers["outer"]["self_ns"] >= 0.02e9 and layers["inner"]["total_ns"] >= 0.02e9


def test_checker_flags_a_planted_wrong_certificate():
    kw = kwaring()
    workload = workloads.DecomposeSweep(kw, 1, "unused")
    cert = kw.decomp.decompose(kw.rank.KInstance(kw.polynomials.Monomial((4, 1, 1)), 3))
    text = kw.certfile.serialize(cert)
    out = "wrote x (3 summands)\n"
    rng = np.random.default_rng(0)
    assert workload.check((3, (4, 1, 1)), (0, out, "", text), rng) is None
    # One coefficient changed: still canonical, still three summands, but false.
    wrong = text.replace("term: 0 1 1 :: (1)*u^0*v^0", "term: 0 1 1 :: (2)*u^0*v^0", 1)
    assert wrong != text
    failure = workload.check((3, (4, 1, 1)), (0, out, "", wrong), rng)
    assert failure is not None and failure.wrong and "misses" in failure.reason
    assert checker.certificate_mismatch(kw.certfile.parse(wrong), rng) > checker.MISMATCH_TOL


def test_checker_flags_a_planted_wrong_verdict(tmp_path):
    kw = kwaring()
    verifier = workloads.VerifyCerts(kw, 1, str(tmp_path))
    corrupted = ("corrupted grid (1, 2)", "unused", (1, 2))
    failure = verifier.check(corrupted, (0, "verified: x0^1*x1^2\n", ""), None)
    assert failure is not None and failure.wrong
    assert verifier.check(corrupted, (1, "verification FAILED\n", ""), None) is None

    searcher = workloads.Search(kw, 1, str(tmp_path))
    below = ((1, 2), 3, 2)
    assert searcher.bounds[below[:2]][0] > 2
    problem = kw.search.SearchProblem(kw.polynomials.Monomial((1, 2)), 3, 2)
    claimed = kw.search.SearchResult(best_residual=1e-12, best_params=np.zeros(problem.nparams),
                                     converged=True, restarts_used=1)
    failure = searcher.check(below, (problem, claimed), np.random.default_rng(0))
    assert failure is not None and failure.wrong and "below the lower bound" in failure.reason

    at_upper = ((1, 1), 2, 2)
    problem = kw.search.SearchProblem(kw.polynomials.Monomial((1, 1)), 2, 2)
    bogus = kw.search.SearchResult(best_residual=1e-12, best_params=np.ones(problem.nparams),
                                   converged=True, restarts_used=1)
    failure = searcher.check(at_upper, (problem, bogus), np.random.default_rng(0))
    assert failure is not None and failure.wrong and "misses" in failure.reason


def test_checker_flags_a_planted_wrong_exit_code(tmp_path):
    kw = kwaring()
    decomposer = workloads.DecomposeSweep(kw, 1, str(tmp_path))
    # Only the known defect, k = 6 with residues (4, 4, 4) exiting 2, is a
    # failure that leaves the run correct.
    failure = decomposer.check((6, (4, 4, 4)), (2, "", "malformed certificate", None), None)
    assert failure is not None and not failure.wrong and "exit 2" in failure.reason
    for op, code in [((6, (4, 4, 4)), 3), ((6, (4, 4, 4)), 1), ((3, (4, 1, 1)), 2),
                     ((3, (4, 1, 1)), 3), ((6, (10, 1, 1)), 2)]:
        failure = decomposer.check(op, (code, "", "certificate failed verification", None),
                                   None)
        assert failure is not None and failure.wrong, (op, code)

    verifier = workloads.VerifyCerts(kw, 1, str(tmp_path))
    intact = ("grid (1, 2)", "unused", (0,))
    failure = verifier.check(intact, (1, "verification FAILED\n", ""), None)
    assert failure is not None and failure.wrong


def test_a_planted_exit_3_or_exception_makes_the_run_incorrect(tiny, monkeypatch, capsys):
    real_run_op = TinyDecompose.run_op

    def exit_3(self, op):
        if op == (3, (4, 1, 1)):
            return (3, "", "certificate failed verification", None), 0.001
        return real_run_op(self, op)

    monkeypatch.setattr(TinyDecompose, "run_op", exit_3)
    code, out, result = run_main(capsys, "--workload", "decompose-sweep", "--seed", "5",
                                 "--seconds", "0.01", "--trace", "0")
    assert code == 1 and result["correct"] is False and result["failed"] >= 1
    assert "WRONG: (3, (4, 1, 1)): exit 3" in out

    def crash(self, op):
        if op == ((2, 2), 4, 3):
            raise RuntimeError("planted")
        return workloads.Search.run_op(self, op)

    monkeypatch.setattr(TinySearch, "run_op", crash)
    for trace in ("0", "1"):
        code, out, result = run_main(capsys, "--workload", "search", "--seed", "5",
                                     "--seconds", "0.01", "--trace", trace)
        assert code == 1 and result["correct"] is False and result["failed"] >= 1
        assert "WRONG: ((2, 2), 4, 3): RuntimeError: planted" in out


def test_corruptions_parse_canonically_but_state_false_identities(tmp_path):
    kw = kwaring()
    verifier = TinyVerify(kw, 11, str(tmp_path))
    verifier.build()
    assert not verifier.setup_failures
    expected = [exp for _, _, exp in verifier.pool]
    assert expected.count((0,)) == 4 and expected.count((1, 2)) >= 1
    for (label, path, exp), text in zip(verifier.pool, verifier.texts):
        cert = kw.certfile.parse(text)
        assert kw.certfile.serialize(cert) == text
        miss = checker.certificate_mismatch(cert, np.random.default_rng(1))
        if exp == (0,):
            assert miss <= checker.MATCH_TOL, label
        else:
            assert miss >= checker.MISMATCH_TOL, label


def test_inputs_depend_only_on_the_seed(tmp_path):
    kw = kwaring()
    a = workloads.DecomposeSweep(kw, 4, str(tmp_path))
    b = workloads.DecomposeSweep(kw, 4, str(tmp_path))
    c = workloads.DecomposeSweep(kw, 5, str(tmp_path))
    assert a.round_ops() == b.round_ops()
    assert a.round_ops() != c.round_ops()
    assert len(set(a.round_ops())) > len(a.round_ops()) // 2


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "search", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(42) == 75.0 and run.tail_percentile(222) == 95.0
    assert run.tail_percentile(5) == 100.0


def test_known_defect_is_not_drawn_but_reported(tmp_path, tiny, capsys):
    decomposer = workloads.DecomposeSweep(kwaring(), 3, str(tmp_path))
    assert decomposer.known_defect_ops() == [(6, (4, 4, 4))]
    assert not any(workloads.known_defect(*op) for op in decomposer.round_ops())
    code, out, result = run_main(capsys, "--workload", "decompose-sweep", "--seed", "5",
                                 "--seconds", "0.01", "--trace", "0")
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert "known defect (6, (4, 4, 4)): " in out


def test_harrell_davis_median():
    assert run.harrell_davis_median([7.0] * 5) == pytest.approx(7.0)
    assert run.harrell_davis_median(range(42)) == pytest.approx(20.5)
    assert run.harrell_davis_median([1.0]) == pytest.approx(1.0)
    # It moves smoothly across a gap where the plain median jumps.
    low, high = [1.0] * 20, [10.0] * 21
    assert 1.0 < run.harrell_davis_median(low + [4.0] + high) < 10.0
    assert abs(run.harrell_davis_median(low + [4.0] + high)
               - run.harrell_davis_median(low + [4.5] + high)) < 0.5

"""kwaring benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload decompose-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; kwaring is imported from ``src/``.
One process runs one workload with a single client and no threads: each
operation starts after the previous one returned.

The seed fixes the workload's list of operations.  ``--trace 0`` sets up
several times (fresh import of kwaring, input generation, certificate pool,
warm-up) and reports the median set-up time, then runs the list in rounds,
each in a fresh seeded order, until ``--seconds`` of operation time have
been spent, checks every result, and prints the end-to-end metrics.  The
operations a workload names as known defects are not in the list; they run
once after the rounds, untimed, and their outcome is printed.  An
operation's latency is its mean over the rounds.  ``ops_per_s`` is the
number of operations that succeeded over the sum of their latencies; the
latency percentiles are taken over the operations: the median as the
Harrell-Davis estimate (a weighted mean of all order statistics), the tail
at the highest of p99.9, p99, p95, p90, p75 and p50 that leaves at least
ten operations beyond it.

On a shared host the whole machine runs up to half as fast, switching
within a second.  A fixed pure-Python probe, timed between operations,
measures that slowdown, and every time metric is reported at the probe's
nominal speed (``PROBE_NOMINAL_S``): measured time divided by the mean probe
time over the nominal one (the median, for the median set-up time).  The
figures as measured, the probe times and the plain closed-loop rate are
written to the record as well.

``--trace 1`` replays round 0 four times, alternating untraced replays with
replays under the span recorder, and prints the per-layer metrics, the
tracing overhead, and whether the two traced replays counted exactly the
same calls.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
environment and per-operation times included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One client and no threads: keep BLAS single-threaded before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# Machine-speed probe: a fixed pure-Python loop timed between operations.
# Other tenants of a shared host slow everything down by up to half, in
# bursts shorter than a second and drifts over minutes; timings are reported
# at the probe's nominal speed, its median on an unloaded core of a 2-CPU
# Xeon VM under Python 3.11.
PROBE_ITERATIONS = 60_000
PROBE_NOMINAL_S = 0.005
PROBE_EVERY_S = 0.2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODULES = ("rationals", "algebra", "polynomials", "rank", "decomp", "certfile",
           "search", "cli")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "decomp.verify.calls_per_op": "count",
    "decomp.verify.self_ms": "ms",
    "polynomials.pow.calls": "count",
    "polynomials.pow.self_ms": "ms",
    "polynomials.pow.terms_out": "count",
    "algebra.ring_mul.calls": "count",
    "algebra.ring_mul.self_ms": "ms",
    "algebra.normalize.calls": "count",
    "algebra.normalize.self_ms": "ms",
    "rank.classify.calls": "count",
    "rank.classify.self_ms": "ms",
    "decomp.construct.self_ms": "ms",
    "certfile.serialize.self_ms": "ms",
    "certfile.parse.self_ms": "ms",
    "certfile.bytes": "bytes",
    "cli.main.self_ms": "ms",
    "search.restarts": "count",
    "search.residual_vector.calls": "count",
    "search.residual_vector.self_ms": "ms",
    "search.jacobian.self_ms": "ms",
    "search.search.self_ms": "ms",
    "trace.overhead_share": "ratio",
}


class Kwaring:
    """Handles on freshly imported kwaring modules."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "kwaring" or m.startswith("kwaring.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        package = importlib.import_module("kwaring")
        if Path(package.__file__).resolve().parent != SRC / "kwaring":
            raise ImportError(f"kwaring imported from {package.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"kwaring.{name}"))


# ---------------------------------------------------------------------------
# Running operations


def execute(workload, op, rng):
    """Run and check one operation: (outcome, seconds, Failure or None)."""
    t0 = perf_counter()
    try:
        outcome, dt = workload.run_op(op)
    except Exception as exc:  # a crash inside kwaring is a wrong result
        dt = perf_counter() - t0
        return None, dt, workloads.Failure(f"{op}: {type(exc).__name__}: {exc}", wrong=True)
    try:
        failure = workload.check(op, outcome, rng)
    except Exception as exc:  # an output the checker cannot even read is wrong
        failure = workloads.Failure(f"{op}: check raised {type(exc).__name__}: {exc}",
                                    wrong=True)
    return outcome, dt, failure


def probe() -> float:
    """Seconds the machine takes for a fixed amount of interpreter work.

    The collector is off, so a collection of kwaring's heap never lands in
    the probe and makes the machine look slower."""
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        return perf_counter() - t0
    finally:
        gc.enable()


def run_round(workload, ops, r, recorder=None, probes=None):
    """Run every operation once, in the seeded order of round ``r``.

    Returns one (outcome, seconds, Failure or None) per operation, in the
    order of ``ops``.  With a ``probes`` list, the machine-speed probe runs
    after every ``PROBE_EVERY_S`` of operation time and its times are
    appended there."""
    results = [None] * len(ops)
    since_probe = 0.0
    for i in np.random.default_rng([workload.seed, 3, r]).permutation(len(ops)):
        rng = np.random.default_rng([workload.seed, 2, r, i])
        if recorder is not None:
            recorder.op = int(i)
            recorder.active = True
        try:
            results[i] = execute(workload, ops[i], rng)
        finally:
            if recorder is not None:
                recorder.active = False
        since_probe += results[i][1]
        if probes is not None and since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
    return results


def digest(workload, ops, results) -> str:
    h = hashlib.sha256()
    for op, (outcome, _, _) in zip(ops, results):
        h.update(workload.digest_item(op, outcome) if outcome is not None
                 else f"{op} crashed\n".encode())
    return h.hexdigest()


def harrell_davis_median(values) -> float:
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) distribution.

    The plain median of a few dozen operations can fall in a gap between a
    cheap and a costly group of operations, where it jumps with small timing
    noise; this estimate moves smoothly.  Both Beta parameters are at least
    1, so the density is bounded and a midpoint rule integrates it."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a = (n + 1) / 2.0
    grid = np.linspace(0.0, 1.0, 100 * n + 1)
    mid = (grid[1:] + grid[:-1]) / 2.0
    cdf = np.concatenate(([0.0], np.cumsum((mid * (1.0 - mid)) ** (a - 1.0))))
    weights = np.diff(cdf[::100]) / cdf[-1]
    return float(weights @ x)


def tail_percentile(n):
    """Highest ladder percentile with at least 10 of ``n`` samples beyond it,
    or the maximum when there are too few samples for any."""
    return next((pct for pct in TAIL_LADDER if n * (1.0 - pct / 100.0) >= 10), 100.0)


# ---------------------------------------------------------------------------
# Environment


def environment(kw) -> dict:
    q_type = type(kw.rationals.Q(0))
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "kwaring").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
        lines = proc.stdout.split()
        # Outside a repository of its own the checkout has no commit.
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": f"{q_type.__module__}.{q_type.__name__}",
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Modes


def set_up(name, seed, workroot):
    """One full set-up; returns (kwaring handles, workload, seconds)."""
    workdir = tempfile.mkdtemp(prefix="setup-", dir=workroot)
    t0 = perf_counter()
    kw = Kwaring()
    workload = workloads.WORKLOADS[name](kw, seed, workdir)
    workload.build()
    workload.warm_up()
    return kw, workload, perf_counter() - t0


def timed_run(args, workroot):
    setups = []
    setup_probes = [probe() for _ in range(3)]
    for _ in range(SETUP_REPEATS):
        kw, workload, seconds = set_up(args.workload, args.seed, workroot)
        setups.append(seconds)
        setup_probes += [probe() for _ in range(3)]
    ops = workload.round_ops()
    rounds = []
    probes = [probe()]
    busy = last = 0.0
    # Whole rounds only; stop where the total lands nearest to --seconds.
    while busy + last / 2 < args.seconds:
        results = run_round(workload, ops, len(rounds), probes=probes)
        # Round 0's outcomes feed the digest and summary; later rounds keep
        # only times and failures, so memory does not grow with the rounds.
        rounds.append(results if not rounds else [(None, dt, f) for _, dt, f in results])
        last = sum(dt for _, dt, _ in results)
        busy += last
    # The known defects run once, untimed and outside ``attempted``: every
    # run shows whether they still fail, and only a wrong result counts.
    known_defects = []
    setup_failures = list(workload.setup_failures)
    for i, op in enumerate(workload.known_defect_ops()):
        _, _, failure = execute(workload, op, np.random.default_rng([args.seed, 4, i]))
        if failure is not None and failure.wrong:
            setup_failures.append(f"known defect {op}: {failure.reason}")
        known_defects.append([str(op), "passes its checks" if failure is None
                              else f"still fails: {failure.reason}"])
    # How much slower than nominal the machine ran while setting up and
    # while running operations, by the statistic of the figure it scales.
    setup_slowdown = statistics.median(setup_probes) / PROBE_NOMINAL_S
    slowdown = statistics.fmean(probes) / PROBE_NOMINAL_S

    failures = [f for results in rounds for _, _, f in results if f is not None]
    typical = [statistics.fmean(results[i][1] for results in rounds) for i in range(len(ops))]
    failed_op = [any(results[i][2] for results in rounds) for i in range(len(ops))]
    # A failed operation misses every latency limit: it ranks as the slowest.
    slowest = max(typical) * 1e3
    latencies = [slowest if bad else t * 1e3 for t, bad in zip(typical, failed_op)]
    pct = tail_percentile(len(ops))
    measured = {
        "ops_per_s": failed_op.count(False) / sum(typical),
        "latency_p50_ms": harrell_davis_median(latencies),
        "latency_tail_ms": float(np.percentile(latencies, pct)),
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "ops_per_s": measured["ops_per_s"] * slowdown,
        "latency_p50_ms": measured["latency_p50_ms"] / slowdown,
        "latency_tail_ms": measured["latency_tail_ms"] / slowdown,
        "setup_s": measured["setup_s"] / setup_slowdown,
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(ops) * len(rounds)
    extra = {
        "measured_at_machine_speed": measured,
        "slowdown": slowdown,
        "setup_slowdown": setup_slowdown,
        "probes_s": probes,
        "setup_probes_s": setup_probes,
        "failed_share": len(failures) / attempted,
        "latency_tail_percentile": pct,
        "operations": len(ops),
        "rounds": len(rounds),
        "busy_s": busy,
        "closed_loop_ops_per_s": (attempted - len(failures)) / busy,
        "setup_runs_s": setups,
        "known_defects": known_defects,
        "certificates_sha256": digest(workload, ops, rounds[0]),
        "latencies_ms": [[str(op), [results[i][1] * 1e3 for results in rounds]]
                         for i, op in enumerate(ops)],
    }
    if isinstance(workload, workloads.VerifyCerts):
        extra["pool_sha256"] = hashlib.sha256("".join(workload.texts).encode()).hexdigest()
    extra.update(workload.summary([(op, outcome) for op, (outcome, _, _) in zip(ops, rounds[0])]))
    return kw, metrics, extra, attempted, failures, setup_failures


def install(recorder, kw):
    def pow_terms(rec, args, result):
        rec.count("polynomials.pow.terms_out", len(result.terms))

    def parsed_bytes(rec, args, result):
        rec.count("certfile.bytes", len(args[0]))

    def serialized_bytes(rec, args, result):
        rec.count("certfile.bytes", len(result))

    rf = recorder.wrap_function
    rf("cli.main", kw.cli.main)
    rf("decomp.decompose", kw.decomp.decompose)
    rf("decomp.verify", kw.decomp.verify)
    rf("rank.classify", kw.rank.classify)
    rf("certfile.parse", kw.certfile.parse, parsed_bytes)
    rf("certfile.serialize", kw.certfile.serialize, serialized_bytes)
    rf("search.search", kw.search.search)
    rf("search.residual_vector", kw.search.residual_vector)
    rf("search.jacobian", kw.search._jacobian)
    recorder.wrap_method("polynomials.pow", kw.polynomials.Polynomial, "__pow__", pow_terms)
    recorder.wrap_method("algebra.ring_mul", kw.algebra.RingElement, "__mul__")
    recorder.wrap_method("algebra.normalize", kw.algebra.ExtensionTower, "normalize")


def traced_replay(workload, kw, ops):
    recorder = SpanRecorder()
    install(recorder, kw)
    try:
        results = run_round(workload, ops, 0, recorder)
    finally:
        recorder.unpatch()
    return recorder, results


def trace_run(args, workroot, out_dir):
    kw, workload, _ = set_up(args.workload, args.seed, workroot)
    ops = workload.round_ops()
    # Alternate untraced and traced replays of round 0 so drift hits both alike.
    plain = run_round(workload, ops, 0)
    first, traced = traced_replay(workload, kw, ops)
    plain += run_round(workload, ops, 0)
    second, again = traced_replay(workload, kw, ops)
    counts_equal = first.call_counts() == second.call_counts()

    plain_s = sum(dt for _, dt, _ in plain)
    traced_s = sum(dt for _, dt, _ in traced + again)
    layers = first.layers()
    counts = first.call_counts()

    def self_ms(name):
        return layers.get(name, {"self_ns": 0})["self_ns"] / 1e6

    summary = workload.summary([(op, outcome) for op, (outcome, _, _) in zip(ops, traced)])
    metrics = {
        "decomp.verify.calls_per_op": counts.get("decomp.verify", 0) / len(ops),
        "decomp.verify.self_ms": self_ms("decomp.verify"),
        "polynomials.pow.calls": counts.get("polynomials.pow", 0),
        "polynomials.pow.self_ms": self_ms("polynomials.pow"),
        "polynomials.pow.terms_out": counts.get("polynomials.pow.terms_out", 0),
        "algebra.ring_mul.calls": counts.get("algebra.ring_mul", 0),
        "algebra.ring_mul.self_ms": self_ms("algebra.ring_mul"),
        "algebra.normalize.calls": counts.get("algebra.normalize", 0),
        "algebra.normalize.self_ms": self_ms("algebra.normalize"),
        "rank.classify.calls": counts.get("rank.classify", 0),
        "rank.classify.self_ms": self_ms("rank.classify"),
        "decomp.construct.self_ms": self_ms("decomp.decompose"),
        "certfile.serialize.self_ms": self_ms("certfile.serialize"),
        "certfile.parse.self_ms": self_ms("certfile.parse"),
        "certfile.bytes": counts.get("certfile.bytes", 0),
        "cli.main.self_ms": self_ms("cli.main"),
        "search.restarts": summary.get("restarts", 0),
        "search.residual_vector.calls": counts.get("search.residual_vector", 0),
        "search.residual_vector.self_ms": self_ms("search.residual_vector"),
        "search.jacobian.self_ms": self_ms("search.jacobian"),
        "search.search.self_ms": self_ms("search.search"),
        "trace.overhead_share": traced_s / plain_s - 1.0,
    }
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    first.write(spans_path)
    extra = {
        "operations": len(ops),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "counts_equal_across_traced_replays": counts_equal,
        "layers": layers,
        "counts": counts,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(first.start),
        "certificates_sha256": digest(workload, ops, traced),
    }
    everything = plain + traced + again
    failures = [f for _, _, f in everything if f is not None]
    setup_failures = list(workload.setup_failures)
    if not counts_equal:
        setup_failures.append("traced replays counted different calls")
    return kw, metrics, extra, len(everything), failures, setup_failures


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kwaring" / "__init__.py").is_file():
        print(f"error: no kwaring sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workroot = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        if args.trace:
            result = trace_run(args, workroot, out_dir)
        else:
            result = timed_run(args, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    kw, metrics, extra, attempted, failures, setup_failures = result

    units = PER_LAYER if args.trace else END_TO_END
    wrong = [f for f in failures if f.wrong]
    correct = not wrong and not setup_failures
    env = environment(kw)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"machine slowdown = {extra['slowdown']:.4f}, in set-up "
              f"{extra['setup_slowdown']:.4f} (probe time over the nominal "
              f"{PROBE_NOMINAL_S * 1e3:g} ms); "
              "as measured: " + " ".join(f"{k}={v:.6g}" for k, v in
                                         extra["measured_at_machine_speed"].items()))
        pct = extra["latency_tail_percentile"]
        print(f"metric latency_tail_percentile = p{pct:g} "
              f"({extra['operations'] * (1 - pct / 100):g} of {extra['operations']} "
              "operations beyond)")
        print(f"metric failed_share = {extra['failed_share']:.6g} share "
              f"({len(failures)} of {attempted})")
        for op, status in extra["known_defects"]:
            print(f"known defect {op}: {status}")
        if "converged_share" in extra:
            print(f"metric converged_share = {extra['converged_share']:.6g} share "
                  f"(of {extra['converged_share_base']} searches with s >= upper)")
    else:
        print(f"trace replays counted equal calls: {extra['counts_equal_across_traced_replays']}")
    print(f"sha256 round 0 {extra['certificates_sha256']}")
    if "pool_sha256" in extra:
        print(f"sha256 certificate pool {extra['pool_sha256']}")
    for failure in failures[:20]:
        print(f"{'WRONG' if failure.wrong else 'failed'}: {failure.reason}")
    for problem in setup_failures:
        print(f"WRONG: {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "details": extra,
        "failures": [f.reason for f in failures],
    }
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

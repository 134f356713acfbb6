"""Command-line surface: monomial parsing, command outputs, exit codes,
WARING_SEED, and byte stability.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import resource
import shlex
import subprocess
import sys

import pytest

from kwaring import rank
from kwaring.certfile import parse
from kwaring.cli import main, parse_monomial
from kwaring.decomp import verify
from kwaring.polynomials import Monomial
from kwaring.search import SearchProblem, search

CLI = [sys.executable, "-m", "kwaring"]
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def test_parse_monomial_token_form():
    assert parse_monomial("x0^4 x1 x2").exponents == (4, 1, 1)
    assert parse_monomial("x0*x1^2").exponents == (1, 2)
    assert parse_monomial("x2").exponents == (0, 0, 1)
    assert parse_monomial("x0 x0^2").exponents == (3,)


def test_parse_monomial_list_form():
    assert parse_monomial("4,1,1").exponents == (4, 1, 1)
    assert parse_monomial("0, 2").exponents == (0, 2)


def test_parse_monomial_errors():
    for bad in ("x0^-1", "4,-1", "y1", "x0^", "", "x0^2^3"):
        with pytest.raises(ValueError):
            parse_monomial(bad)


def test_rank_exact_output(capsys):
    assert main(["rank", "-k", "3", "x0 x1 x2"]) == 0
    out = capsys.readouterr().out
    assert "exact 4" in out
    assert "trace:" in out


def test_rank_open_output(capsys):
    assert main(["rank", "-k", "3", "x0^3 x1 x2 x3"]) == 0
    out = capsys.readouterr().out
    assert "bounds [3,4] (open)" in out


def test_rank_rejects_bad_degree(capsys):
    assert main(["rank", "-k", "3", "x0 x1"]) == 2


def test_decompose_stdout_parses_and_verifies(capsys):
    assert main(["decompose", "-k", "3", "x0^2 x1^4"]) == 0
    out = capsys.readouterr().out
    cert = parse(out)
    assert cert.summand_count == 3
    assert verify(cert)


def test_decompose_to_file_then_verify(tmp_path, capsys):
    path = tmp_path / "c.cert"
    assert main(["decompose", "-k", "3", "4,1,1", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {path} (3 summands)" in out
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verified: x0^4*x1^1*x2^1 (3 summands, k=3)" in out


def test_decompose_internal_fault_exit_code(monkeypatch, capsys):
    # x0^4 x1^4 x2^4 at k = 6 groups as (x0 x1)^4 (x2^2)^2
    assert main(["decompose", "-k", "6", "4,4,4"]) == 0
    assert parse(capsys.readouterr().out).summand_count == 5
    # six blocks that pair up: a form of the averaging identity vanishes, a
    # fault of decompose, so exit 3
    blocks = [Monomial(e) for e in ((2, 0, 0), (2, 0, 0), (0, 2, 0), (0, 2, 0),
                                    (0, 0, 2), (0, 0, 2))]
    monkeypatch.setattr(rank, "_grouping", lambda inst: ((1,) * 6, blocks))
    assert main(["decompose", "-k", "6", "4,4,4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and "malformed" in captured.err


def test_verify_detects_coefficient_corruption(tmp_path):
    path = tmp_path / "c.cert"
    assert main(["decompose", "-k", "3", "4,1,1", "--out", str(path)]) == 0
    text = path.read_text()
    assert "(-1/6)" in text
    path.write_text(text.replace("(-1/6)", "(-1/7)", 1))
    # still parses, but the identity is now false
    assert main(["verify", str(path)]) == 1


def test_verify_exit_codes_for_parse_failures(tmp_path):
    missing = tmp_path / "missing.cert"
    assert main(["verify", str(missing)]) == 2
    bad = tmp_path / "bad.cert"
    bad.write_text("not a certificate\n")
    assert main(["verify", str(bad)]) == 2


def test_search_exit_codes():
    ok = run_cli("search", "-k", "2", "-s", "2", "--restarts", "5", "1,1")
    assert ok.returncode == 0
    assert "converged: true" in ok.stdout
    fail = run_cli("search", "-k", "3", "-s", "2", "--restarts", "2", "1,2")
    assert fail.returncode == 1
    assert "converged: false" in fail.stdout


@pytest.mark.parametrize("k, restarts, monomial", [(4, "1", "1,27"), (3, "6", "1,11")])
def test_a_converged_search_below_the_proven_lower_bound_exits_1(k, restarts, monomial,
                                                                  monkeypatch, capsys):
    """At s = 2 the search converges numerically, but the rank-2
    characterisation proves rank >= 3: stdout and --json keep the verdict,
    one stderr line names the rule and the bound, and the exit code is 1."""
    monkeypatch.delenv("WARING_SEED", raising=False)
    argv = ["search", "-k", str(k), "-s", "2", "--restarts", restarts, monomial]
    expected = "search: converged with 2 summands, but minimum-rank-dichotomy proves rank >= 3\n"
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out.endswith("converged: true\n") and err == expected
    assert main(argv + ["--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["converged"] is True and err == expected


def test_search_seed_env_override():
    by_flag = run_cli("search", "-k", "2", "-s", "2", "--restarts", "3",
                      "--seed", "9", "2,2")
    by_env = run_cli("search", "-k", "2", "-s", "2", "--restarts", "3", "2,2",
                     env_extra={"WARING_SEED": "9"})
    assert by_flag.stdout == by_env.stdout


def test_in_process_calls_read_seed_env_each_time(monkeypatch, capsys):
    argv = ["search", "-k", "2", "-s", "2", "--restarts", "1", "1,1"]
    outs = []
    for seed in ("3", "8", "8"):
        monkeypatch.setenv("WARING_SEED", seed)
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert "seed: 3\n" in outs[0] and "seed: 8\n" in outs[1]
    assert outs[1] == outs[2]
    assert main(argv + ["--seed", "5"]) == 0
    assert "seed: 5\n" in capsys.readouterr().out
    rank = ["rank", "-k", "3", "x0^4 x1 x2"]
    assert main(rank) == 0
    first = capsys.readouterr().out
    assert main(rank) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_search_refuses_non_finite_or_non_positive_tolerance(tol, capsys):
    # an infinite tolerance used to report convergence at any residual
    assert main(["search", "-k", "3", "-s", "1", "--restarts", "1", "--tol", tol,
                 "x0^4 x1 x2"]) == 2
    captured = capsys.readouterr()
    assert "tolerance" in captured.err and "converged" not in captured.out


def test_malformed_seed_env_exits_2(monkeypatch, capsys):
    argv = ["search", "-k", "2", "-s", "2", "--restarts", "1", "1,1"]
    for bad in ("abc", "1.5", ""):
        monkeypatch.setenv("WARING_SEED", bad)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "WARING_SEED" in captured.err and captured.out == ""
    assert main(argv + ["--seed", "4"]) == 0
    assert "seed: 4\n" in capsys.readouterr().out
    monkeypatch.delenv("WARING_SEED")
    assert main(argv) == 0
    assert "seed: 0\n" in capsys.readouterr().out


def test_negative_seed_exits_2_naming_its_source(monkeypatch, capsys):
    argv = ["search", "-k", "2", "-s", "2", "--restarts", "1", "1,1"]
    monkeypatch.delenv("WARING_SEED", raising=False)
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err and "non-negative" in captured.err and captured.out == ""
    monkeypatch.setenv("WARING_SEED", "-3")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "WARING_SEED" in captured.err and "non-negative" in captured.err
    assert captured.out == ""


def test_readme_search_example(monkeypatch, capsys):
    # the README's search block, run as printed; only the residual's low digits may move
    block = README.read_text().split("$ kwaring search ", 1)[1].split("```", 1)[0]
    command, *documented = block.strip().splitlines()
    monkeypatch.delenv("WARING_SEED", raising=False)
    assert main(["search"] + shlex.split(command)) == 0
    printed = capsys.readouterr().out.splitlines()
    label = "best residual: "
    for lines in (documented, printed):
        tolerance = float(next(line for line in lines if line.startswith("tolerance: "))[11:])
        residuals = [float(line[len(label):]) for line in lines if line.startswith(label)]
        assert len(residuals) == 1 and residuals[0] < tolerance
    assert ([line for line in printed if not line.startswith(label)]
            == [line for line in documented if not line.startswith(label)])


def test_search_json_reports_every_restart(monkeypatch, capsys):
    monkeypatch.delenv("WARING_SEED", raising=False)
    argv = ["search", "-k", "3", "-s", "2", "--restarts", "3", "--seed", "5", "1,2"]
    assert main(argv + ["--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    result = search(SearchProblem(Monomial((1, 2)), 3, 2), restarts=3, seed=5)
    assert report == {
        "target": "x0^1*x1^2", "k": 3, "summands": 2, "restarts": 3, "tolerance": 1e-10,
        "seed": 5, "best_residual": result.best_residual,
        "restarts_used": result.restarts_used, "converged": False,
        "restart_records": [dataclasses.asdict(r) for r in result.restarts],
    }
    assert len(report["restart_records"]) == 3
    assert main(["search", "-k", "2", "-s", "2", "--restarts", "5", "--json", "1,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert [r["stop"] for r in report["restart_records"]][-1] == "converged"
    # without the flag, stdout is the text report
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith("target: x0^1*x1^2\nk: 3\n")


def test_classes_output(capsys):
    assert main(["classes", "-n", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "residue classes mod 3 in 3 variable(s): 4\n"
        "0,0,0\n0,1,2\n1,1,1\n2,2,2\n"
    )


def test_compare_bounds_output(capsys):
    assert main(["compare-bounds", "-n", "2"]) == 0
    assert capsys.readouterr().out == "n: 2\nthreshold: 6\n"


def test_table_output(capsys):
    assert main(["table", "-k", "4", "-n", "2", "--max-degree", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exponents\tlower\tupper\tstatus"
    assert "1,3\t4\t4\texact" in lines
    assert "2,2\t3\t3\texact" in lines
    # non-decreasing exponent canonicalization: no (3,1) row
    assert not any(line.startswith("3,1\t") for line in lines)


def test_table_rows_are_pinned(capsys):
    # Every row and its order, pinned by the sha256 of this command's stdout.
    assert main(["table", "-k", "4", "-n", "4", "--max-degree", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3b7e3a3bc484553bb6880016c5a89b1f2630fe5910c38e9b1259a518902af2a0"
    )


def test_table_counts_over_the_atlas_scope(capsys):
    # k = 2..6, at most 4 variables, degree up to 3k: 310 rows, of which 219
    # are open, and the sum of upper - lower over them is 791
    rows = []
    for k in range(2, 7):
        assert main(["table", "-k", str(k), "-n", "4", "--max-degree", str(3 * k)]) == 0
        rows += [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 310
    assert sum(status == "open" for *_, status in rows) == 219
    assert sum(int(upper) - int(lower) for _, lower, upper, _ in rows) == 791


def test_table_lists_only_partitions_with_many_variables():
    # 40 variables, degrees 5 and 10: p(5) + p(10) = 7 + 42 rows, out of
    # C(44, 5) + C(49, 10) (about 8e9) exponent tuples.  The child's address
    # space is capped, so listing every tuple fails here rather than filling
    # the machine's memory; one BLAS thread keeps numpy's own reservation
    # under the cap.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    res = subprocess.run(CLI + ["table", "-k", "5", "-n", "40", "--max-degree", "10"],
                         capture_output=True, text=True, env=env, preexec_fn=cap)
    assert res.returncode == 0, res.stderr
    rows = [line.split("\t")[0] for line in res.stdout.splitlines()[1:]]
    assert len(rows) == 7 + 42
    assert rows[0] == ",".join(["0"] * 39 + ["5"])
    assert all(tuple(map(int, r.split(","))) == tuple(sorted(map(int, r.split(","))))
               for r in rows)


@pytest.mark.parametrize("size, bound", [
    (["-k", "2", "-n", "0"], "n >= 1"),
    (["-k", "2", "-n", "-1"], "n >= 1"),
    (["-k", "0", "-n", "2"], "k >= 2"),
    (["-k", "1", "-n", "2"], "k >= 2"),
])
def test_table_refuses_bad_sizes(capsys, size, bound):
    assert main(["table", *size, "--max-degree", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and bound in captured.err


def test_unknown_flag_exits_2():
    r = run_cli("rank", "-k", "3", "--bogus", "x0 x1 x2")
    assert r.returncode == 2


def test_byte_stable_outputs():
    for args in (
        ["rank", "-k", "3", "x0^4 x1 x2"],
        ["classes", "-n", "3", "-k", "3"],
        ["compare-bounds", "-n", "3"],
        ["table", "-k", "3", "-n", "2", "--max-degree", "9"],
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # not empty

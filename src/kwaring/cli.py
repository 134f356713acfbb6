"""Command-line interface.

Exit codes separate four situations:
    0  success (rank printed, certificate verified, search converged)
    1  mathematical falsity (verification failed, search did not converge,
       or it converged with fewer summands than classify's lower bound)
    2  usage, parse, or I/O errors
    3  internal invariant breach (a freshly built certificate failed to verify)

`WARING_SEED` overrides the default of --seed; an explicit flag wins.
Floats print as %.6e (in full under `search --json`), rationals exactly; all
output is deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys

from .certfile import CertificateParseError, read_certificate, serialize, write_certificate
from .decomp import CertificateError, MalformedCertificateError, decompose, verify
from .polynomials import Monomial
from .rank import KInstance, classify, compare_bounds, residue_classes
from .search import SearchProblem, search as run_search

_VAR_TOKEN = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str) -> Monomial:
    """Accept `x0^4 x1 x2` style tokens or a comma list `4,1,1`."""
    text = text.strip()
    if not text:
        raise ValueError("empty monomial")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        try:
            exps = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad exponent list: {text!r}") from None
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        return Monomial(exps)
    tokens = [t for t in re.split(r"[\s*]+", text) if t]
    pairs = []
    for token in tokens:
        m = _VAR_TOKEN.match(token)
        if not m:
            raise ValueError(f"bad variable token: {token!r}")
        idx = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) is not None else 1
        pairs.append((idx, exp))
    nv = 1 + max(idx for idx, _ in pairs)
    exps = [0] * nv
    for idx, exp in pairs:
        exps[idx] += exp
    return Monomial(tuple(exps))


def _instance(args) -> KInstance:
    return KInstance(parse_monomial(args.monomial), args.k)


def _print_rank(inst: KInstance) -> None:
    bounds = classify(inst)
    print(f"monomial: {inst.monomial.text()}")
    print(f"k: {inst.k}")
    if bounds.exact:
        print(f"exact {bounds.upper}")
    else:
        print(f"bounds [{bounds.lower},{bounds.upper}] (open)")
    print("trace:")
    for record in bounds.trace:
        print(f"  {record.rule} | {record.statement} | {record.kind} {record.bound}")


def _cmd_rank(args) -> int:
    _print_rank(_instance(args))
    return 0


def _cmd_decompose(args) -> int:
    cert = decompose(_instance(args))
    if args.out:
        write_certificate(cert, args.out)
        print(f"wrote {args.out} ({cert.summand_count} summands)")
    else:
        sys.stdout.write(serialize(cert))
    return 0


def _cmd_verify(args) -> int:
    cert = read_certificate(args.file)
    if verify(cert):
        print(f"verified: {cert.target.text()} "
              f"({cert.summand_count} summands, k={cert.k})")
        return 0
    print("verification FAILED: expansion does not match the target")
    return 1


def _seed(flag) -> int:
    """The search seed: --seed if given, else WARING_SEED, else 0."""
    if flag is None:
        name, raw = "WARING_SEED", os.environ.get("WARING_SEED", "0")
    else:
        name, raw = "--seed", flag
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def _refuted(monomial: Monomial, k: int, s: int) -> bool:
    """Whether classify proves the rank above s, so that a converged search
    claims a decomposition that does not exist; if so, one stderr line
    names the rule and its bound."""
    bounds = classify(KInstance(monomial, k))
    if s >= bounds.lower:
        return False
    rule = next(r.rule for r in bounds.trace if r.kind != "upper" and r.bound == bounds.lower)
    print(f"search: converged with {s} summands, but {rule} proves rank >= {bounds.lower}",
          file=sys.stderr)
    return True


def _cmd_search(args) -> int:
    seed = _seed(args.seed)
    monomial = parse_monomial(args.monomial)
    problem = SearchProblem(monomial, args.k, args.s)
    result = run_search(problem, restarts=args.restarts, tolerance=args.tol,
                        seed=seed)
    if args.json:
        print(json.dumps({
            "target": monomial.text(), "k": args.k, "summands": args.s,
            "restarts": args.restarts, "tolerance": args.tol, "seed": seed,
            "best_residual": result.best_residual, "restarts_used": result.restarts_used,
            "converged": result.converged,
            "restart_records": [dataclasses.asdict(r) for r in result.restarts],
        }))
    else:
        print(f"target: {monomial.text()}")
        print(f"k: {args.k}")
        print(f"summands: {args.s}")
        print(f"restarts: {args.restarts}")
        print(f"tolerance: {args.tol:.6e}")
        print(f"seed: {seed}")
        print(f"best residual: {result.best_residual:.6e}")
        print(f"restarts used: {result.restarts_used}")
        print(f"converged: {'true' if result.converged else 'false'}")
    return 0 if result.converged and not _refuted(monomial, args.k, args.s) else 1


def _cmd_classes(args) -> int:
    classes = residue_classes(args.n, args.k)
    print(f"residue classes mod {args.k} in {args.n + 1} variable(s): {len(classes)}")
    for cls in classes:
        print(",".join(str(r) for r in cls))
    return 0


def _cmd_compare_bounds(args) -> int:
    k = compare_bounds(args.n)
    print(f"n: {args.n}")
    print(f"threshold: {k}")
    return 0


def _nondecreasing_tuples(n, total):
    def rec(remaining, slots, minimum):
        if slots == 1:
            if remaining >= minimum:
                yield (remaining,)
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    return rec(total, n, 0)


def _cmd_table(args) -> int:
    k, n, max_degree = args.k, args.n, args.max_degree
    if n < 1:
        raise ValueError(f"table needs n >= 1 variables, got {n}")
    if k < 2:
        raise ValueError(f"table needs k >= 2, got {k}")
    print("exponents\tlower\tupper\tstatus")
    for degree in range(k, max_degree + 1, k):
        for exps in _nondecreasing_tuples(n, degree):
            bounds = classify(KInstance(Monomial(exps), k))
            status = "exact" if bounds.exact else "open"
            print("%s\t%d\t%d\t%s"
                  % (",".join(str(e) for e in exps), bounds.lower, bounds.upper, status))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="kwaring",
        description="Exact bounds, verified certificates and numeric search "
                    "for expressing monomials as sums of k-th powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="print rank bounds and the rule trace")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("monomial")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("decompose", help="build and verify a certificate")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--out", help="write the certificate file here")
    p.add_argument("monomial")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="numeric power-sum search")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="print one JSON object with the verdict and every restart's record")
    p.add_argument("monomial")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("classes", help="residue classes of exponents mod k")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("compare-bounds",
                       help="smallest k whose generic 2^(k-1) bound exceeds k^n")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_compare_bounds)

    p = sub.add_parser("table", help="classification table up to permutation")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificateParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except MalformedCertificateError as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Four subcommands:

* act: apply one group element to one polynomial.
* invariants: list the fixed polynomials of a group element at one degree,
  by enumeration (default where the theory applies) or exhaustive census.
* scrim: count, list, or construct conjugate self-reciprocal or plain
  self-reciprocal irreducibles.
* verify: run the built-in consistency suites.

Exit codes: 0 success, 2 malformed input, 3 domain violation, 4 capacity
cap exceeded, 5 verification failure.  Output is byte deterministic for a
fixed command line; wall clock timing appears only under --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import CapacityError, DegreeTooSmall, DomainError, ParseError
from .gftower import build_tower
from .invariants import (
    DEFAULT_CENSUS_BUDGET,
    DEFAULT_ENUM_CAP,
    census,
    construct_scrim,
    enumerate_invariants,
    plan_enumeration,
    scrim_count,
    scrim_count_divisor_sum,
    scrim_polynomials,
    srim_count,
    srim_polynomials,
)
from .pgammal import Mat2, Semilinear, semilinear_act
from .polyring import Poly
from .textio import format_poly, parse_poly
from .verify import SUITES, run_suite


def _add_field_args(sub, with_n=True):
    sub.add_argument("--p", type=int, required=True, help="field characteristic")
    sub.add_argument("--e", type=int, default=1, help="degree of F_q over F_p")
    if with_n:
        sub.add_argument(
            "--n", type=int, required=True, help="degree of the top field over F_q"
        )


def _add_output_args(sub):
    sub.add_argument("--output", choices=("text", "json"), default="text")
    sub.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed milliseconds (breaks byte determinism)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galois-moebius",
        description="Twisted projective actions on polynomials over field towers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    act = subs.add_parser("act", help="apply a group element to a polynomial")
    _add_field_args(act)
    act.add_argument("--matrix", required=True, help="four entries a;b;c;d")
    act.add_argument(
        "--frob",
        type=int,
        default=None,
        help="Frobenius power (default n, the plain fractional linear action)",
    )
    act.add_argument("--poly", required=True, help="coefficients c0,c1,...")
    _add_output_args(act)

    inv = subs.add_parser("invariants", help="fixed polynomials at one degree")
    _add_field_args(inv)
    inv.add_argument("--matrix", required=True, help="four entries a;b;c;d")
    inv.add_argument("--frob", type=int, default=None)
    inv.add_argument("--degree", type=int, required=True)
    inv.add_argument(
        "--method",
        choices=("auto", "enum", "census"),
        default="auto",
        help="auto tries the enumeration and falls back to the census",
    )
    inv.add_argument("--seed", type=int, default=0)
    inv.add_argument(
        "--cap-enum",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="largest enumeration size: (q**t)**s sieve candidates for D = 1, "
        "fixing polynomial degree (q**t)**s + 1 for D > 1",
    )
    inv.add_argument(
        "--cap-census",
        type=int,
        default=DEFAULT_CENSUS_BUDGET,
        help="largest candidate count (field size ** degree) the census accepts",
    )
    _add_output_args(inv)

    scrim = subs.add_parser(
        "scrim", help="conjugate self-reciprocal / self-reciprocal families"
    )
    _add_field_args(scrim, with_n=False)
    scrim.add_argument("--degree", type=int, required=True)
    scrim.add_argument(
        "--kind",
        choices=("scrim", "srim"),
        default="scrim",
        help="scrim: degree n over F_(q**2); srim: even degree over F_q",
    )
    scrim.add_argument("--mode", choices=("count", "list", "first"), default="count")
    _add_output_args(scrim)

    ver = subs.add_parser("verify", help="run the built-in consistency suites")
    ver.add_argument("--suite", choices=SUITES + ("all",), default="all")
    ver.add_argument("--seed", type=int, default=0)
    _add_output_args(ver)

    return parser


def _emit(args, command: str, params: dict, result: dict, lines: list[str], millis):
    if args.output == "json":
        doc = {
            "schema": 1,
            "command": command,
            "params": params,
            "result": result,
            "millis": millis,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        if millis is not None:
            print(f"elapsed ms: {millis}")


def _cmd_act(args):
    tower = build_tower(args.p, args.e, args.n)
    mat = Mat2.parse(tower, args.matrix)
    g = Semilinear(mat, args.frob)
    f = Poly(tower.top, parse_poly(tower.top, args.poly))
    image = semilinear_act(g, f)
    token = format_poly(tower.top, image.coeffs)
    params = {
        "p": args.p,
        "e": args.e,
        "n": args.n,
        "matrix": mat.to_text(),
        "frob": g.frob,
        "poly": format_poly(tower.top, f.coeffs),
    }
    return "act", params, {"poly": token}, [token]


def _cmd_invariants(args):
    tower = build_tower(args.p, args.e, args.n)
    mat = Mat2.parse(tower, args.matrix)
    g = Semilinear(mat, args.frob)
    method = args.method
    plan_doc = None
    if method in ("auto", "enum"):
        try:
            plan = plan_enumeration(g, args.degree, cap=args.cap_enum)
            polys = enumerate_invariants(
                g, args.degree, cap=args.cap_enum, seed=args.seed
            )
            method = "enum"
            fields = ("feasible", "reason", "frob_index", "span",
                      "factor_order", "s", "shifts", "twists")
            plan_doc = {name: getattr(plan, name) for name in fields}
        except DegreeTooSmall:
            if args.method == "enum":
                raise
            method = "census"
    if method == "census":
        report = census(g, [args.degree], budget=args.cap_census)
        polys = report.entries[0].polynomials
    tokens = [format_poly(tower.top, f.coeffs) for f in polys]
    params = {
        "p": args.p,
        "e": args.e,
        "n": args.n,
        "matrix": mat.to_text(),
        "frob": g.frob,
        "degree": args.degree,
        "method": method,
        "seed": args.seed,
    }
    result = {"count": len(tokens), "polynomials": tokens}
    if plan_doc is not None:
        result["plan"] = plan_doc
    lines = [f"count: {len(tokens)} (method {method})"] + tokens
    return "invariants", params, result, lines


def _cmd_scrim(args):
    tower = build_tower(args.p, args.e, 2)
    q = tower.q
    params = {
        "p": args.p,
        "e": args.e,
        "q": q,
        "degree": args.degree,
        "kind": args.kind,
        "mode": args.mode,
    }
    if args.kind == "scrim":
        if args.mode == "count":
            a = scrim_count(q, args.degree)
            b = scrim_count_divisor_sum(q, args.degree)
            result = {"count": a, "count_by_divisor_sum": b, "agree": a == b}
            lines = [f"count: {a}", f"count by divisor sum: {b}"]
        elif args.mode == "list":
            fam = scrim_polynomials(tower, args.degree)
            tokens = [format_poly(tower.top, f.coeffs) for f in fam]
            result = {"count": len(tokens), "polynomials": tokens}
            lines = [f"count: {len(tokens)}"] + tokens
        else:
            pair = construct_scrim(tower, args.degree)
            tokens = [format_poly(tower.top, f.coeffs) for f in pair]
            result = {"polynomials": tokens}
            lines = tokens
    else:
        if args.mode == "count":
            if args.degree % 2:
                raise DomainError("self-reciprocal irreducibles have even degree")
            c = srim_count(q, args.degree // 2)
            result = {"count": c}
            lines = [f"count: {c}"]
        elif args.mode == "list":
            fam = srim_polynomials(tower.mid, args.degree)
            tokens = [format_poly(tower.mid, f.coeffs) for f in fam]
            result = {"count": len(tokens), "polynomials": tokens}
            lines = [f"count: {len(tokens)}"] + tokens
        else:
            fam = srim_polynomials(tower.mid, args.degree)
            if not fam:
                raise DomainError("no self-reciprocal irreducible of this degree")
            token = format_poly(tower.mid, fam[0].coeffs)
            result = {"poly": token}
            lines = [token]
    return "scrim", params, result, lines


def _cmd_verify(args):
    checks = run_suite(args.suite, seed=args.seed)
    failed = [c for c in checks if not c.ok]
    result = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "checks": [
            {"suite": c.suite, "name": c.name, "ok": c.ok, "details": c.details}
            for c in checks
        ],
    }
    lines = [
        f"{'PASS' if c.ok else 'FAIL'} {c.suite}/{c.name}: {c.details}" for c in checks
    ]
    lines.append(f"{len(checks) - len(failed)} passed, {len(failed)} failed")
    params = {"suite": args.suite, "seed": args.seed}
    return "verify", params, result, lines


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        handler = {
            "act": _cmd_act,
            "invariants": _cmd_invariants,
            "scrim": _cmd_scrim,
            "verify": _cmd_verify,
        }[args.command]
        command, params, result, lines = handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    millis = int((time.perf_counter() - start) * 1000) if args.timing else None
    _emit(args, command, params, result, lines, millis)
    if command == "verify" and result["failed"]:
        print(f"error: {result['failed']} consistency checks failed", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Subcommands:

    coproduct  -- print the published coproduct of a generator after
                  verifying it against the computed one (twist or
                  homomorphism route)
    rexpand    -- solve the perturbative R-matrix expansion at one order
    verify     -- run a named verification suite (`run_suite` checks the
                  name); only this subcommand imports `verify`
    eval       -- parse, elaborate and print an expression, optionally
                  canonicalized against a relation set

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error.  JSON output has sorted keys and is byte-stable
for identical inputs and seeds.  No formulas live here: the published
coproducts are in `poincare`, the generator names in `hopf.GENERATORS`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .hopf import TwistContext
from .parser import ParseError, elaborate, evaluate, parse
from .poincare import CASES, case_lambda, closed_form_coproduct, closed_form_string, realization
from .scalars import DomainError, UsageError, sum_str, term_str
from .tensor import TensorElement, canonicalize, tensor

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_lambda(text: str):
    """The twist parameter of a `--lambda` option: None for "sym" (symbolic
    lambda), else an exact rational."""
    if text == "sym":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid twist parameter {text!r}") from exc


def rexpand_lambda(text: str) -> Fraction:
    """The twist parameter the re-expansion solves at.  It solves over exact
    rationals only, so "sym" means lambda = 1/2."""
    lam = parse_lambda(text)
    return Fraction(1, 2) if lam is None else lam


def rexpand_truncation(order: int, truncation: int | None) -> int:
    """The a0 truncation the re-expansion of order k runs at: the one
    given, or max(k, 2) when none is."""
    return max(order, 2) if truncation is None else truncation


def _emit(text: str) -> None:
    """Print a line: the CLI's one stdout writer.  A reader that closed the
    pipe (`| head`) gets no more: stdout goes to os.devnull, as the SIGPIPE
    note of the Python docs describes, and the exit code stands."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(payload: dict) -> None:
    _emit(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


# -- coproduct ------------------------------------------------------------


def _cmd_coproduct(args) -> int:
    lam = parse_lambda(args.lam)
    case = args.case
    node = parse(args.gen)
    if node[0] == "Mhat" and lam is None:
        lam = case_lambda(case, lam)
    ctx = TwistContext(order=args.order, lam=lam)
    closed_text = closed_form_string(node, case)
    closed = closed_form_coproduct(closed_text, ctx, case)
    coproduct = ctx.coproduct if args.method == "twist" else ctx.coproduct_hom
    computed = coproduct(elaborate(node, ctx, case))
    verified = computed == closed
    payload = {
        "subcommand": "coproduct",
        "generator": args.gen,
        "case": case,
        "lambda": args.lam if lam is None else str(lam),
        "order": args.order,
        "method": args.method,
        "closed_form": closed_text,
        "verified": verified,
    }
    if args.format == "json":
        # rendered only here: text mode never prints the computed tensor
        payload["canonical"] = str(computed)
        _emit_json(payload)
    else:
        _emit(closed_text)
        if not verified:
            print("verification FAILED; canonical residual:", file=sys.stderr)
            print(computed - closed, file=sys.stderr)
    return EXIT_OK if verified else EXIT_FAIL


# -- rexpand --------------------------------------------------------------

_K1_LABELS = {
    "Mh_i0 ox p_i": "c1",
    "Mh_i0*p_i ox 1": "c2",
    "1 ox Mh_i0*p_i": "d1",
    "p_i ox Mh_i0": "d2",
}


def _coefficient_strings(result) -> dict[str, str]:
    """Coefficient name -> value, or a linear expression in the free
    parameters t1, t2, ... for parametric orders."""
    sol = result.solution
    out = {}
    labels = [f"t{m + 1}" for m in range(len(sol.nullspace))]
    for i, t in enumerate(result.terms):
        base = sol.particular[i]
        pieces = [str(base)] if base else []
        pieces += [
            term_str(str(vec[i]), label)
            for label, vec in zip(labels, sol.nullspace)
            if vec[i]
        ]
        out[t.name] = sum_str(pieces)
    return out


def _linear_combination_string(result, coeffs: dict[str, str]) -> str:
    """LaTeX-like rendering of r_k as -i a0^k ( sum of coeff * term )."""
    pieces = []
    for t in result.terms:
        c = coeffs[t.name]
        if c == "0":
            continue
        body = t.name.replace(" ox ", r" \otimes ")
        pieces.append(f"({c}) {body}")
    inner = " + ".join(pieces) if pieces else "0"
    return f"-i a0^{result.order} [ {inner} ]"


def _cmd_rexpand(args) -> int:
    from .rexpand import expand, named_parameters

    lam = rexpand_lambda(args.lam)
    order = rexpand_truncation(args.order, args.truncation)
    ctx = TwistContext(order=order, lam=lam)
    real = realization(args.case, ctx)
    results = expand(args.order, real, ctx)
    result = results[-1]
    at_order = result.order == args.order
    reached = at_order and result.status != "infeasible"
    coefficients = _coefficient_strings(result) if reached else {}
    combination = _linear_combination_string(result, coefficients) if reached else ""
    payload = {
        "subcommand": "rexpand",
        "case": args.case,
        "lambda": str(lam),
        "order": args.order,
        "truncation": order,
        "status": result.status if at_order else "blocked",
        "ansatz_size": len(result.terms),
        "equations": result.equations,
        "dimension": result.dimension,
        "coefficients": coefficients,
        "linear_combination": combination,
        "verified_order": args.order <= 3,
    }
    if reached and args.order == 1:
        payload.update({_K1_LABELS[name]: c for name, c in coefficients.items()})
    if reached and result.order == 3 and result.status == "parametric":
        payload["parameters"] = {
            k: str(v) for k, v in named_parameters(result).items()
        }
    if args.format == "json":
        _emit_json(payload)
    else:
        _emit(
            f"order {result.order}: {result.status}"
            f" (ansatz {len(result.terms)}, equations {result.equations},"
            f" dimension {result.dimension})"
        )
        if reached:
            _emit("r_%d = %s" % (result.order, combination))
        if not payload["verified_order"]:
            _emit("note: no reference data at this order; result unverified")
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def _cmd_verify(args) -> int:
    from .verify import run_suite

    lam = parse_lambda(args.lam)
    report = run_suite(
        args.suite, order=args.order, lam=lam, seed=args.seed, quick=args.quick
    )
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        _emit(report.render_text())
    return EXIT_OK if report.passed else EXIT_FAIL


# -- eval -----------------------------------------------------------------


def _cmd_eval(args) -> int:
    lam = parse_lambda(args.lam)
    ctx = TwistContext(order=args.order, lam=lam)
    value = evaluate(args.expr, ctx, args.case)
    if args.canonicalize:
        rel = getattr(ctx, args.canonicalize)
        if not isinstance(value, TensorElement):
            value = tensor(value, ctx.one)
        value = canonicalize(value, rel)
    text = str(value)
    if args.format == "json":
        _emit_json(
            {
                "subcommand": "eval",
                "expr": args.expr,
                "canonicalize": args.canonicalize,
                "lambda": args.lam,
                "order": args.order,
                "result": text,
                "tensor": isinstance(value, TensorElement),
            }
        )
    else:
        _emit(text)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------


# built once per process: parsing leaves the parser unchanged
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kappatwist",
        description="Exact symbolic engine for the twist-deformed "
        "Heisenberg and Poincare algebras.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    cp = sub.add_parser("coproduct", help="closed-form generator coproducts")
    cp.add_argument("--gen", required=True, help="generator name, e.g. p1 or Mhat[1,0]")
    cp.add_argument("--case", choices=CASES, default=None)
    cp.add_argument("--lambda", dest="lam", default="sym", help="'sym' or a rational")
    cp.add_argument("--order", type=int, default=4)
    cp.add_argument("--method", choices=("twist", "hom"), default="twist")
    cp.add_argument("--format", choices=("text", "json"), default="text")
    cp.set_defaults(func=_cmd_coproduct)

    rx = sub.add_parser("rexpand", help="perturbative R-matrix expansion")
    rx.add_argument("--order", type=int, required=True, help="expansion order k")
    rx.add_argument("--case", choices=CASES, default="ii")
    rx.add_argument("--lambda", dest="lam", default="sym")
    rx.add_argument(
        "--truncation",
        type=int,
        default=None,
        help="a0-truncation order, at least k (default max(k,2)); it changes the "
        "echoed truncation and the run time, never the answer",
    )
    rx.add_argument("--format", choices=("text", "json"), default="json")
    rx.set_defaults(func=_cmd_rexpand)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", default="all")
    vf.add_argument("--lambda", dest="lam", default="sym")
    vf.add_argument("--order", type=int, default=3)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--quick", action="store_true")
    vf.add_argument("--format", choices=("text", "json"), default="text")
    vf.set_defaults(func=_cmd_verify)

    ev = sub.add_parser("eval", help="evaluate an expression")
    ev.add_argument("expr")
    ev.add_argument("--canonicalize", choices=("R0", "R", "Rtilde"), default=None)
    ev.add_argument("--lambda", dest="lam", default="sym")
    ev.add_argument("--order", type=int, default=4)
    ev.add_argument("--case", choices=CASES, default=None)
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.set_defaults(func=_cmd_eval)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

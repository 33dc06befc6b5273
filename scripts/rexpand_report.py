#!/usr/bin/env python3
"""Solve the perturbative R-matrix expansion order by order and print a
report: a first line naming the case, the lambda solved at and the
truncation, then ansatz sizes, equation counts, solution-space
dimensions, the named third-order parameters, and the substitution
residual.

Usage:
    python scripts/rexpand_report.py [--case i|ii|iii] [--up-to K]
                                     [--lambda sym|p/q] [--truncation N]

`--lambda` is read as `kappatwist rexpand` reads it: `sym` solves at
lambda = 1/2.  Exit codes: 0 when every order solves, 1 when the expansion
is blocked, 2 on a usage or domain error.
"""

import argparse
import sys

from kappatwist.cli import EXIT_USAGE, rexpand_lambda, rexpand_truncation
from kappatwist.hopf import TwistContext
from kappatwist.poincare import CASES, realization
from kappatwist.rexpand import (
    expand,
    named_parameters,
    residual_through,
    wedge_check,
)
from kappatwist.scalars import DomainError, UsageError


def report(args) -> int:
    order = rexpand_truncation(args.up_to, args.truncation)
    lam = rexpand_lambda(args.lam)
    ctx = TwistContext(order=order, lam=lam)
    real = realization(args.case, ctx)
    results = expand(args.up_to, real, ctx)
    print(f"case={args.case} lambda={lam} truncation={order}")
    for r in results:
        line = (
            f"order {r.order}: {r.status:<11} ansatz={len(r.terms):<3}"
            f" equations={r.equations:<3} dimension={r.dimension}"
        )
        if r.status != "infeasible" and r.element is not None:
            line += f" wedge={wedge_check(r.element)}"
        print(line)
        if r.order == 3 and r.status == "parametric":
            params = named_parameters(r)
            print(
                "  free parameters (at the particular solution): "
                + ", ".join(f"{k}={v}" for k, v in params.items())
            )
    solved = [r.element for r in results if r.status != "infeasible"]
    if len(solved) == len(results):
        residual = residual_through(solved, ctx)
        grades = [
            k for k in range(1, len(solved) + 1)
            if not residual.grade_part(k).is_zero()
        ]
        print(
            "substitution residual through solved orders: "
            + ("clean" if not grades else f"nonzero at grades {grades}")
        )
        return 0
    print("expansion blocked: no solution at the last reported order")
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--case", choices=CASES, default="ii")
    ap.add_argument("--up-to", type=int, default=3)
    ap.add_argument("--lambda", dest="lam", default="1/2")
    ap.add_argument("--truncation", type=int, default=None)
    args = ap.parse_args()
    try:
        return report(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

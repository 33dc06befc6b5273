#!/usr/bin/env python3
"""Print the closed-form coproduct table for all generators and the boost
coproducts of each Lorentz case, verifying every entry against the
computed coproduct first.

Usage:
    python scripts/coproduct_tables.py [--order N]
"""

import argparse
import sys

from kappatwist.cli import run
from kappatwist.hopf import GENERATORS
from kappatwist.poincare import CASES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=3)
    args = ap.parse_args()
    order = str(args.order)
    worst = 0
    for gen in (*GENERATORS, "M[1,2]", "M[1,3]", "M[2,3]"):
        print(f"Delta {gen:<8} = ", end="")
        worst = max(worst, run(["coproduct", "--gen", gen, "--order", order]))
    for case in CASES:
        for i in (1, 2, 3):
            print(f"Delta Mhat[{i},0] (case {case:<3}) = ", end="")
            cmd = [
                "coproduct", "--gen", f"Mhat[{i},0]",
                "--case", case, "--order", order,
            ]
            worst = max(worst, run(cmd))
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Named verification suites with timing and machine-readable reports.

Each suite runs a list of exact checks and records pass/fail plus a
residual rendering on failure, one `CheckRecord` per check.  Suites:
algebra, coalgebra, twist, rmatrix, poincare, and the union `all`;
`run_suite` rejects any other name.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    AlgebraElement,
    DIM,
    ETA,
    Monomial,
    Polynomial,
    act,
    commutator,
    p,
    x,
)
from .hopf import COORDINATES, MOMENTA, TwistContext
from .poincare import (
    CASES,
    boost_coproduct_closed_form,
    case_lambda,
    kappa_commutator_check,
    lorentz_algebra_check,
    lorentz_coproduct,
    momentum_sector_closed_forms,
    realization,
)
from .scalars import Scalar, UsageError
from .tensor import equal_mod, tau0


class CheckRecord(NamedTuple):
    name: str
    passed: bool
    residual: str
    seconds: float


class VerificationReport(NamedTuple):
    suite: str
    order: int
    lam: str
    seed: int
    checks: list[CheckRecord]  # `run` appends to it

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def run(self, name: str, fn):
        """Time the check fn and record it: it passes when fn returns None
        or "", and any other value is its residual."""
        t0 = time.monotonic()
        try:
            residual = fn()
            residual = "" if residual is None else str(residual)
        except UsageError as exc:
            residual = f"error: {exc}"
        self.checks.append(
            CheckRecord(name, not residual, residual, time.monotonic() - t0)
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "order": self.order,
            "lambda": self.lam,
            "seed": self.seed,
            "passed": self.passed,
            # timings are deliberately omitted so that identical inputs
            # give byte-identical JSON
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual}
                for c in self.checks
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"suite={self.suite} order={self.order} lambda={self.lam} seed={self.seed}"
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"  [{status}] {c.name} ({c.seconds:.2f}s)"
            if not c.passed and c.residual:
                line += f"\n         residual: {c.residual}"
            lines.append(line)
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _random_element(rng: random.Random, order: int, max_deg: int = 2) -> AlgebraElement:
    out = AlgebraElement.zero(order)
    for _ in range(rng.randint(1, 3)):
        alpha = [0] * DIM
        beta = [0] * DIM
        for _ in range(rng.randint(0, max_deg)):
            alpha[rng.randrange(DIM)] += 1
        for _ in range(rng.randint(0, max_deg)):
            beta[rng.randrange(DIM)] += 1
        coeff = Scalar.from_value(
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)), order
        )
        out = out + AlgebraElement({Monomial(tuple(alpha), tuple(beta)): coeff}, order)
    return out


def _random_poly(rng: random.Random, order: int, max_deg: int = 2) -> Polynomial:
    exps = [0] * DIM
    for _ in range(rng.randint(0, max_deg)):
        exps[rng.randrange(DIM)] += 1
    coeff = Scalar.from_value(Fraction(rng.randint(1, 3)), order)
    return Polynomial({tuple(exps): coeff}, order)


# -- suites ---------------------------------------------------------------


def _suite_algebra(report: VerificationReport, ctx: TwistContext, rng: random.Random, quick: bool):
    n = ctx.order

    def heisenberg():
        # both the one-pass commutator and the two products it replaces,
        # so that the check still tests the product
        bad = []
        for mu in range(DIM):
            for nu in range(DIM):
                pm, xn = p(mu, n), x(nu, n)
                want = AlgebraElement.one(n).scale(
                    Scalar.i(n).scale(-ETA[mu] if mu == nu else 0)
                )
                got = commutator(pm, xn)
                if got != want:
                    bad.append(f"[p{mu},x{nu}]={got}")
                got = pm * xn - xn * pm
                if got != want:
                    bad.append(f"p{mu}*x{nu}-x{nu}*p{mu}={got}")
        return "; ".join(bad)

    report.run("heisenberg-commutators", heisenberg)

    def associativity():
        trials = 20 if quick else 100
        for _ in range(trials):
            a = _random_element(rng, n)
            b = _random_element(rng, n)
            c = _random_element(rng, n)
            if (a * b) * c != a * (b * c):
                return f"(a*b)*c != a*(b*c) for a={a}, b={b}, c={c}"
        return ""

    report.run("product-associativity", associativity)

    def action_composition():
        trials = 10 if quick else 40
        for _ in range(trials):
            a = _random_element(rng, n)
            b = _random_element(rng, n)
            f = _random_poly(rng, n)
            lhs = act(a * b, f)
            rhs = act(a, act(b, f))
            if lhs != rhs:
                return f"(ab)|>f != a|>(b|>f) for a={a}, b={b}"
        return ""

    report.run("module-action-composition", action_composition)


def _suite_coalgebra(report: VerificationReport, ctx: TwistContext, rng: random.Random, quick: bool):
    def generator_limits():
        bad = []
        for name in COORDINATES + MOMENTA:
            d = ctx.generator_coproduct(name)
            limit = d.a0_limit()
            d0 = ctx.coproduct0(ctx.generator(name))
            if limit != d0:
                bad.append(name)
        return "nonprimitive a0-limit: " + ", ".join(bad) if bad else ""

    report.run("coproduct-a0-limit", generator_limits)

    def homomorphism():
        trials = 5 if quick else 20
        for _ in range(trials):
            a = _random_element(rng, ctx.order, max_deg=1)
            b = _random_element(rng, ctx.order, max_deg=1)
            lhs = ctx.coproduct(a * b)
            rhs = ctx.coproduct(a) * ctx.coproduct(b)
            if not equal_mod(lhs, rhs, ctx.R):
                return f"Delta(ab) != Delta(a)Delta(b) for a={a}, b={b}"
        return ""

    report.run("coproduct-homomorphism", homomorphism)

    def two_routes():
        for name in ("x1", "p1", "x0", "p0"):
            a = ctx.generator(name)
            if not equal_mod(ctx.coproduct(a * a), ctx.coproduct_hom(a * a), ctx.R):
                return f"twist route != generator route on {name}^2"
        return ""

    report.run("coproduct-two-routes", two_routes)


def _suite_twist(report: VerificationReport, ctx: TwistContext, rng: random.Random, quick: bool):
    report.run(
        "cocycle-condition",
        lambda: "" if ctx.verify_cocycle() else "two-sided cocycle products differ",
    )
    report.run(
        "counit-normalization",
        lambda: "" if ctx.verify_counit() else "(eps ox id)F != 1",
    )

    def star_flip():
        trials = 6 if quick else 16
        for _ in range(trials):
            f = _random_poly(rng, ctx.order)
            g = _random_poly(rng, ctx.order)
            if ctx.star_product(f, g, "F") != ctx.star_product(g, f, "Ftilde"):
                return "star-product flip identity failed"
        return ""

    report.run("star-product-flip", star_flip)


def _suite_rmatrix(report: VerificationReport, ctx: TwistContext, rng: random.Random, quick: bool):
    def r_inverse():
        if tau0(ctx.rmatrix()) == ctx.rmatrix_inverse():
            return ""
        return "tau0(R) != R^-1"

    report.run("rmatrix-flip-inverse", r_inverse)

    def opposite_coproduct():
        names = ("x1", "p1") if quick else COORDINATES + MOMENTA
        for name in names:
            h = ctx.generator(name)
            lhs = ctx.coproduct_opposite(h)
            rhs = ctx.rmatrix_conjugate(h)
            if lhs != rhs:
                return f"opposite coproduct != R-conjugated coproduct on {name}"
        return ""

    report.run("rmatrix-intertwines-coproducts", opposite_coproduct)

    def factorization():
        # F_op F^-1 agrees with exp(rho) modulo nothing: both are literal
        # tensor elements.
        lhs = tau0(ctx.twist()) * ctx.twist_inverse()
        if lhs == ctx.rmatrix():
            return ""
        return "Ftilde F^-1 != exp(rho)"

    report.run("rmatrix-twist-factorization", factorization)


def _suite_poincare(report: VerificationReport, ctx: TwistContext, rng: random.Random, quick: bool):
    def kappa_commutators():
        failures = kappa_commutator_check(ctx)
        return "[xhat,xhat] structure failed: " + ", ".join(failures) if failures else ""

    report.run("kappa-coordinate-commutators", kappa_commutators)

    cases = CASES[:1] if quick else CASES
    for case in cases:
        lam = case_lambda(case, ctx.lam)
        if ctx.lam not in (None, lam):
            continue
        case_ctx = ctx if lam == ctx.lam else TwistContext(ctx.order, lam)
        real = realization(case, case_ctx)

        def algebra_closure(real=real, case_ctx=case_ctx):
            failures = lorentz_algebra_check(real, case_ctx)
            return "closure failed: " + ", ".join(failures) if failures else ""

        report.run(f"lorentz-closure-case-{case}", algebra_closure)

        def momentum_sector(real=real, case_ctx=case_ctx):
            failures = momentum_sector_closed_forms(real, case_ctx)
            return "momentum sector failed: " + ", ".join(failures) if failures else ""

        report.run(f"momentum-sector-case-{case}", momentum_sector)

        def closed_coproduct(real=real, case_ctx=case_ctx):
            d = lorentz_coproduct(1, real, case_ctx)
            c = boost_coproduct_closed_form(1, real, case_ctx)
            if d != c:
                return f"boost coproduct != closed form:\n{d - c}"
            return ""

        report.run(f"boost-coproduct-case-{case}", closed_coproduct)


_SUITES = {
    "algebra": _suite_algebra,
    "coalgebra": _suite_coalgebra,
    "twist": _suite_twist,
    "rmatrix": _suite_rmatrix,
    "poincare": _suite_poincare,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(
    suite: str,
    order: int = 3,
    lam=None,
    seed: int = 0,
    quick: bool = False,
) -> VerificationReport:
    """Run one suite (or 'all') and return the report."""
    if suite != "all" and suite not in _SUITES:
        raise UsageError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    ctx = TwistContext(order=order, lam=lam)
    lam_text = "sym" if ctx.lam is None else str(ctx.lam)
    report = VerificationReport(suite, order, lam_text, seed, [])
    rng = random.Random(seed)
    names = SUITE_NAMES if suite == "all" else (suite,)
    for name in names:
        _SUITES[name](report, ctx, rng, quick)
    return report

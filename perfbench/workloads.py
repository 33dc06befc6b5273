"""The benchmark's workloads: seeded inputs, one call per request, and a
check on every output.

A request is one call of a public kappatwist entry point: `cli.run` with
an argument list, `verify.run_suite`, or one star-product pair.  Each
workload is a closed loop with one client: a request starts when the
previous one has returned.  kappatwist is imported lazily, inside
`build`, so that the import counts as set-up time.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0
STAR_PAIRS = 100  # star-pairs requests per pass; p90 then has 10 samples above it


@dataclass
class Op:
    """One request.  `run` is the timed call.  Untimed afterwards,
    `render` gives the output bytes of its result and `verify` the reason
    the result is wrong ("" when it is right)."""

    key: str  # identifies the input, for the recorded-bytes check
    run: Callable[[], object]
    render: Callable[[object], bytes]
    verify: Callable[[object], str]
    span: str | None = None  # traced-run span around the request


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one pass; a run repeats the pass
    # verify-sym: check name -> seconds, summed over the run's passes
    check_seconds: dict[str, float] = field(default_factory=dict)


WORKLOADS = {
    "rexpand-ladder": "exact rexpand solves, orders 1-3 of case ii and the infeasible case iii: BCH, canonicalize, linsolve",
    "verify-sym": "the verification suite at N=3 with symbolic lambda: lambda-polynomial scalars, cocycle via t3_exp",
    "coproduct-mix": "116 short coproduct and eval CLI requests, each on a fresh context; parser and set-up heavy",
    "star-pairs": "star products of 100 seeded polynomial pairs on one prebuilt twist: act and Polynomial",
}


def build(name: str, seed: int) -> Workload:
    """The workload's requests for this seed; imports kappatwist."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))


# -- CLI requests ----------------------------------------------------------


def check_cli(result, check_json: Callable[[dict], str]) -> str:
    """A CLI request must exit 0 and print one JSON document that passes
    `check_json`."""
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        data = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    return check_json(data)


def _cli_op(argv: list[str], check_json: Callable[[dict], str]) -> Op:
    from kappatwist import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    return Op(
        " ".join(argv),
        run,
        lambda result: result[1].encode(),
        lambda result: check_cli(result, check_json),
        span=f"cli.run.{argv[0]}",
    )


# -- rexpand-ladder --------------------------------------------------------


def check_rexpand(order: int, data: dict) -> str:
    """Independent checks from the paper, per expansion order."""
    if data.get("order") != order:
        return f"answered order {data.get('order')} instead of {order}"
    status = data.get("status")
    if order == 1:
        got = tuple(data.get(k) for k in ("c1", "c2", "d1", "d2"))
        if status != "unique" or got != ("-1", "0", "0", "1"):
            return f"order 1: status {status}, c1,c2,d1,d2 = {got}"
    elif order == 2:
        coeffs = data.get("coefficients") or {}
        if not coeffs or any(v != "0" for v in coeffs.values()):
            return "order 2: coefficients are not all zero"
    elif order == 3:
        params = sorted(data.get("parameters") or {})
        if status != "parametric" or params != ["alpha1", "alpha2", "beta1"]:
            return f"order 3: status {status}, parameters {params}"
    return ""


def check_infeasible(data: dict) -> str:
    status = data.get("status")
    return "" if status == "infeasible" else f"case iii order 3: status {status}"


def _rexpand_ladder(rng: random.Random) -> Workload:
    # Order 4 (about 20 s in one request) is left out: a run repeats its
    # pass to take each request's fastest time, and one order-4 request
    # would fill the whole run.
    ops = [
        _cli_op(
            ["rexpand", "--order", str(k), "--case", "ii"],
            lambda data, k=k: check_rexpand(k, data),
        )
        for k in (1, 2, 3)
    ]
    ops.append(
        _cli_op(
            ["rexpand", "--order", "3", "--case", "iii", "--truncation", "3"],
            check_infeasible,
        )
    )
    return Workload("rexpand-ladder", ops)


# -- verify-sym ------------------------------------------------------------

VERIFY_ORDER = 3
# The suite's own random draws change its work by about 10% from one seed
# to the next, which would read as noise across runs: the seed is fixed.
VERIFY_SEED = 0


def _verify_sym(rng: random.Random) -> Workload:
    from kappatwist.verify import run_suite

    workload = Workload("verify-sym", [])

    def run():
        return run_suite("all", order=VERIFY_ORDER, lam=None, seed=VERIFY_SEED, quick=True)

    def render(report):
        for c in report.checks:
            workload.check_seconds[c.name] = workload.check_seconds.get(c.name, 0.0) + c.seconds
        text = json.dumps(report.to_dict(), sort_keys=True, separators=(", ", ": "))
        return (text + "\n").encode()

    def verify(report):
        failed = [c.name for c in report.checks if not c.passed]
        if failed or not report.checks:
            return "failed checks: " + ", ".join(failed)
        return ""

    key = f"run_suite all order={VERIFY_ORDER} lam=sym seed={VERIFY_SEED} quick"
    workload.ops.append(Op(key, run, render, verify))
    return workload


# -- coproduct-mix ---------------------------------------------------------

# The strata are fixed so that every seed costs about the same: each
# generator kind is asked once per (method, lambda kind).  Twist-route
# requests take orders 5-6 and homomorphism-route ones, which cost about
# five times more, orders 3-4; case (i) boosts, the heavy tail, take
# order 3.  The seed picks spatial indices, the rational lambdas, the
# eval products and the order in which the requests are sent.
_KINDS = ("x0", "x*", "p0", "p*", "A", "S", "Z", "M", "Mhat-i", "Mhat-ii", "Mhat-iii")
_CELLS = (("twist", "sym"), ("twist", "num"), ("hom", "sym"), ("hom", "num"))
_ORDERS = (3, 4, 5, 6)
_RATIONAL_LAMBDAS = ("1/3", "1/2", "2/3")
_EVAL_SHAPES = ("x{a}*x{b}*p{c}", "x0*x{a}*p0*p{b}", "x{a}^2*p{b} ox x{c}*p0")


def _check_coproduct(gen: str, data: dict) -> str:
    if data.get("generator") != gen:
        return f"answered for generator {data.get('generator')}"
    return "" if data.get("verified") is True else "closed form not verified"


def _eval_check(rel: str, lam: str, order: int):
    """The result must parse back, have coordinate-free left legs and be
    left unchanged by canonicalizing it again."""

    def check(data: dict) -> str:
        from kappatwist.algebra import AlgebraElement
        from kappatwist.hopf import TwistContext
        from kappatwist.parser import elaborate, parse
        from kappatwist.tensor import canonicalize, tensor

        ctx = TwistContext(order=order, lam=None if lam == "sym" else Fraction(lam))
        value = elaborate(parse(data["result"]), ctx)
        if isinstance(value, AlgebraElement):
            value = tensor(value, AlgebraElement.one(order))
        if any(left.x_degree() for left, _ in value.terms):
            return "a left leg still carries a coordinate"
        relations = {"R0": ctx.R0, "R": ctx.R, "Rtilde": ctx.Rtilde}[rel]
        if canonicalize(value, relations) != value:
            return "result is not in canonical form"
        return ""

    return check


def _coproduct_order(kind_index: int, kind: str, method: str) -> int:
    if kind == "Mhat-i":
        return 3
    return (5 if method == "twist" else 3) + (kind_index % 2)


def _coproduct_mix(rng: random.Random) -> Workload:
    spatial = (1, 2, 3)
    ops = []
    for k, kind in enumerate(_KINDS):
        for method, lam_kind in _CELLS:
            order = _coproduct_order(k, kind, method)
            lam = "sym" if lam_kind == "sym" else rng.choice(_RATIONAL_LAMBDAS)
            case = None
            if kind in ("x*", "p*"):
                gen = f"{kind[0]}{rng.choice(spatial)}"
            elif kind == "M":
                i, j = rng.sample(spatial, 2)
                gen = f"M[{i},{j}]"
            elif kind.startswith("Mhat"):
                gen = f"Mhat[{rng.choice(spatial)},0]"
                case = kind.split("-")[1]
                if case == "ii" and lam != "sym":
                    lam = "1/2"  # case (ii) is the lam = 1/2 basis
            else:
                gen = kind
            argv = ["coproduct", "--gen", gen, "--lambda", lam, "--order", str(order)]
            argv += ["--method", method, "--format", "json"]
            if case:
                argv += ["--case", case]
            ops.append(_cli_op(argv, lambda data, gen=gen: _check_coproduct(gen, data)))
    for shape in _EVAL_SHAPES:
        for rel in ("R0", "R", "Rtilde"):
            for order in _ORDERS:
                for lam_kind in ("sym", "num"):
                    lam = "sym" if lam_kind == "sym" else rng.choice(_RATIONAL_LAMBDAS)
                    a, b, c = (rng.choice(spatial) for _ in range(3))
                    expr = shape.format(a=a, b=b, c=c)
                    argv = ["eval", expr, "--canonicalize", rel, "--lambda", lam]
                    argv += ["--order", str(order), "--format", "json"]
                    ops.append(_cli_op(argv, _eval_check(rel, lam, order)))
    rng.shuffle(ops)
    return Workload("coproduct-mix", ops)


# -- star-pairs ------------------------------------------------------------

STAR_ORDER = 4


# Each polynomial has a degree-1 and a degree-2 term.  Where the time
# coordinate x0 sits and whether the degree-2 term repeats an index are
# fixed by the pair's position, so every seed costs about the same; the
# seed picks the spatial indices and the coefficients.
_STAR_SHAPES = (("s", "st"), ("0", "st"), ("s", "0s"), ("s", "ss"), ("0", "ss"), ("s", "00"))


def _poly_terms(rng: random.Random, shape: tuple[str, str]) -> tuple:
    """((exponents, numerator, denominator), ...) for one shape: "0" is
    x0, "s" a spatial coordinate, "st" two different spatial ones and
    "ss" one of them squared."""
    terms = []
    for slots in shape:
        spatial = rng.sample((1, 2, 3), 2)
        if slots == "ss":
            spatial[1] = spatial[0]
        exps = [0, 0, 0, 0]
        for k, slot in enumerate(slots):
            exps[0 if slot == "0" else spatial[k]] += 1
        terms.append((tuple(exps), rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    return tuple(sorted(terms))


def _star_pairs(rng: random.Random) -> Workload:
    from kappatwist.algebra import Polynomial
    from kappatwist.hopf import TwistContext
    from kappatwist.scalars import Scalar

    ctx = TwistContext(order=STAR_ORDER, lam=None)
    ctx.twist_inverse()
    ctx.twist_opposite_inverse()

    def poly(spec):
        out = Polynomial.zero(STAR_ORDER)
        for exps, num, den in spec:
            coeff = Scalar.from_value(Fraction(num, den), STAR_ORDER)
            out = out + Polynomial.x_monomial(exps, STAR_ORDER, coeff)
        return out

    def make(f_spec, g_spec):
        f, g = poly(f_spec), poly(g_spec)
        return Op(
            f"star f={f_spec} g={g_spec}",
            lambda: (ctx.star_product(f, g, "F"), ctx.star_product(g, f, "Ftilde")),
            lambda result: f"{result[0]}\n{result[1]}\n".encode(),
            lambda result: "" if result[0] == result[1] else "(f*g)_F != (g*f)_Ftilde",
        )

    n = len(_STAR_SHAPES)
    ops = [
        make(_poly_terms(rng, _STAR_SHAPES[i % n]), _poly_terms(rng, _STAR_SHAPES[i // n % n]))
        for i in range(STAR_PAIRS)
    ]
    return Workload("star-pairs", ops)


_BUILDERS = {
    "rexpand-ladder": _rexpand_ladder,
    "verify-sym": _verify_sym,
    "coproduct-mix": _coproduct_mix,
    "star-pairs": _star_pairs,
}

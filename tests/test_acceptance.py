"""Acceptance gate: thirteen exact criteria, one test (and one printed
pass/fail line) each.

All comparisons are exact — zero tolerance — in the quotient indicated by
the relation set used.  Truncation orders follow the criterion text (N=4
unless a criterion pins N=3).
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from kappatwist.algebra import (
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
from kappatwist.hopf import TwistContext
from kappatwist.scalars import LP_LAM, GaussianRational, LambdaPoly, Scalar
from kappatwist.tensor import (
    TensorElement,
    canonicalize,
    equal_mod,
    tau0,
    tensor,
)

SEED = 20260823


def _report(num: int, name: str, passed: bool):
    print(f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num:02d} {name} FAILED"


@pytest.fixture(scope="module")
def ctx3():
    return TwistContext(order=3)


@pytest.fixture(scope="module")
def ctx4():
    return TwistContext(order=4)


@pytest.fixture(scope="module")
def half4():
    return TwistContext(order=4, lam=Fraction(1, 2))


def _random_element(rng, order, max_deg=2, max_terms=3):
    out = AlgebraElement.zero(order)
    for _ in range(rng.randint(1, max_terms)):
        alpha = [0] * DIM
        beta = [0] * DIM
        for _ in range(rng.randint(0, max_deg)):
            alpha[rng.randrange(DIM)] += 1
        for _ in range(rng.randint(0, max_deg)):
            beta[rng.randrange(DIM)] += 1
        c = Scalar.from_value(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), order)
        out = out + AlgebraElement.monomial(
            Monomial(tuple(alpha), tuple(beta)), order
        ).scale(c)
    return out


# 1 ---------------------------------------------------------------------


def test_criterion_01_heisenberg_kernel(ctx3):
    n = 3
    ok = True
    for mu in range(DIM):
        for nu in range(DIM):
            want = AlgebraElement.zero(n)
            if mu == nu:
                want = AlgebraElement.one(n).scale(Scalar.i(n).scale(-ETA[mu]))
            ok &= commutator(p(mu, n), x(nu, n)) == want
            ok &= commutator(x(mu, n), x(nu, n)).is_zero()
            ok &= commutator(p(mu, n), p(nu, n)).is_zero()
    rng = random.Random(SEED)
    for _ in range(500):
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        c = _random_element(rng, n)
        ok &= (a * b) * c == a * (b * c)
    for _ in range(50):
        a = _random_element(rng, n, max_deg=1)
        b = _random_element(rng, n, max_deg=1)
        f = Polynomial.x_monomial((1, 1, 0, 0), n)
        ok &= act(a * b, f) == act(a, act(b, f))
    _report(1, "heisenberg-kernel", ok)


# 2 ---------------------------------------------------------------------


def test_criterion_02_relation_identities(ctx4):
    ctx = ctx4
    n = 4
    one = ctx.one
    lam = LambdaPoly.gen()
    lam_s = Scalar.from_value(LP_LAM, n)
    a0 = Scalar.a0(n)
    S = ctx.S
    ok = True
    # relation elements of the twisted set: x_i (x) 1 = Z^(lam-1) (x) x_i Z^-lam
    for i in (1, 2, 3):
        rel_el = tensor(x(i, n), one) - tensor(
            ctx.z(lam - LambdaPoly.const(1)), x(i, n) * ctx.z(-lam)
        )
        ok &= canonicalize(rel_el, ctx.R).is_zero()
    rel_el0 = tensor(x(0, n), one) - (
        tensor(one, x(0, n))
        - tensor(one, S).scale(a0 * (Scalar.one(n) - lam_s))
        - tensor(S, one).scale(a0 * lam_s)
    )
    ok &= canonicalize(rel_el0, ctx.R).is_zero()
    # flipped relation set: x_i (x) 1 = Z^lam (x) x_i Z^(1-lam)
    for i in (1, 2, 3):
        rel_el = tensor(x(i, n), one) - tensor(
            ctx.z(lam), x(i, n) * ctx.z(LambdaPoly.const(1) - lam)
        )
        ok &= canonicalize(rel_el, ctx.Rtilde).is_zero()
    rel_el0 = tensor(x(0, n), one) - (
        tensor(one, x(0, n))
        + tensor(one, S).scale(a0 * lam_s)
        + tensor(S, one).scale(a0 * (Scalar.one(n) - lam_s))
    )
    ok &= canonicalize(rel_el0, ctx.Rtilde).is_zero()
    # the two closed forms of the deformed coordinate coproducts agree mod R
    for i in (1, 2, 3):
        ok &= equal_mod(
            tensor(x(i, n), ctx.z(lam)),
            tensor(ctx.z(lam - LambdaPoly.const(1)), x(i, n)),
            ctx.R,
        )
    form_a = tensor(x(0, n), one) + tensor(one, S).scale(
        a0 * (Scalar.one(n) - lam_s)
    )
    form_b = tensor(one, x(0, n)) - tensor(S, one).scale(a0 * lam_s)
    ok &= equal_mod(form_a, form_b, ctx.R)
    _report(2, "deformed-relation-identities", ok)


# 3 ---------------------------------------------------------------------


def test_criterion_03_coproducts_by_twist(ctx4):
    ctx = ctx4
    n = 4
    one = ctx.one
    lam = LambdaPoly.gen()
    lam_s = Scalar.from_value(LP_LAM, n)
    a0 = Scalar.a0(n)
    ok = True
    # closed forms of the generator coproducts
    for i in (1, 2, 3):
        ok &= ctx.generator_coproduct(f"x{i}") == canonicalize(
            tensor(x(i, n), ctx.z(lam)), ctx.R
        )
        ok &= ctx.generator_coproduct(f"p{i}") == canonicalize(
            tensor(p(i, n), ctx.z(-lam))
            + tensor(ctx.z(LambdaPoly.const(1) - lam), p(i, n)),
            ctx.R,
        )
    ok &= ctx.generator_coproduct("x0") == canonicalize(
        tensor(x(0, n), one)
        + tensor(one, ctx.S).scale(a0 * (Scalar.one(n) - lam_s)),
        ctx.R,
    )
    ok &= ctx.generator_coproduct("p0") == canonicalize(
        tensor(p(0, n), one) + tensor(one, p(0, n)), ctx.R
    )
    # the deformation switches off with a0
    for name in ("x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3"):
        ok &= ctx.generator_coproduct(name).grade_part(0) == ctx.coproduct0(
            ctx.generator(name)
        )
    # homomorphism on 100 random generator pairs
    rng = random.Random(SEED)
    names = ["x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3"]
    for _ in range(100):
        a = ctx.generator(rng.choice(names))
        b = ctx.generator(rng.choice(names))
        ok &= equal_mod(
            ctx.coproduct(a * b),
            ctx.coproduct(a) * ctx.coproduct(b),
            ctx.R,
        )
    _report(3, "coproducts-by-twist", ok)


# 4 ---------------------------------------------------------------------


def test_criterion_04_realization(ctx4):
    ctx = ctx4
    n = 4
    ok = True
    monos = [e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4]
    xh = [ctx.xhat(mu) for mu in range(4)]
    for mu in range(4):
        x_mu = Polynomial.x_monomial(tuple(int(nu == mu) for nu in range(4)), n)
        for exps in monos:
            f = Polynomial.x_monomial(exps, n)
            ok &= ctx.star_product(x_mu, f) == act(xh[mu], f)
    i = Scalar.i(n)
    a0 = Scalar.a0(n)
    for mu in range(4):
        for nu in range(4):
            rhs = AlgebraElement.zero(n)
            if mu == 0:
                rhs = rhs + xh[nu].scale(i * a0)
            if nu == 0:
                rhs = rhs - xh[mu].scale(i * a0)
            ok &= commutator(xh[mu], xh[nu]) == rhs
    _report(4, "realization", ok)


# 5 ---------------------------------------------------------------------


def test_criterion_05_coordinate_coproducts(ctx4):
    from paper_reference import p_leftward, xhat_coproduct_compact

    ctx = ctx4
    n = 4
    one = ctx.one
    lam = LambdaPoly.gen()
    ok = True
    xh = [ctx.xhat(mu) for mu in range(4)]
    # the coproduct of xhat_mu is the class of xhat_mu (x) 1 mod R
    d = [canonicalize(tensor(xh[mu], one), ctx.R) for mu in range(4)]
    for i in (1, 2, 3):
        ok &= d[i] == canonicalize(tensor(ctx.z(-1), xh[i]), ctx.R)
    explicit = tensor(one, xh[0])
    for k in (1, 2, 3):
        explicit = explicit - tensor(
            p(k, n) * ctx.z(lam - LambdaPoly.const(1)), xh[k]
        ).scale(Scalar.a0(n))
    ok &= d[0] == canonicalize(explicit, ctx.R)
    # compact leftward-momentum form, including a0 p^L_0 = 1 - Z^-1
    for mu in range(4):
        ok &= d[mu] == xhat_coproduct_compact(mu, ctx)
    ok &= p_leftward(0, ctx).scale(Scalar.a0(n)) == one - ctx.z(-1)
    _report(5, "coordinate-coproducts", ok)


# 6 ---------------------------------------------------------------------


def test_criterion_06_poincare_coproducts(ctx4, half4):
    from kappatwist.poincare import (
        boost_coproduct_closed_form,
        lorentz_coproduct,
        mhat,
        mij,
        realization,
    )
    from paper_reference import rotation_coproduct_closed_form

    ok = True
    for case in ("i", "ii", "iii"):
        ctx = half4 if case == "ii" else ctx4
        real = realization(case, ctx)
        for i in (1, 2, 3):
            d_twist = lorentz_coproduct(i, real, ctx)
            d_hom = ctx.coproduct_hom(mhat(i, real, ctx))
            closed = boost_coproduct_closed_form(i, real, ctx)
            ok &= d_twist == d_hom == closed
    for i, j in ((1, 2), (1, 3), (2, 3)):
        d = ctx4.coproduct(mij(i, j, ctx4))
        ok &= d == ctx4.coproduct_hom(mij(i, j, ctx4))
        ok &= d == rotation_coproduct_closed_form(i, j, ctx4)
    _report(6, "poincare-coproducts", ok)


# 7 ---------------------------------------------------------------------


def test_criterion_07_algebra_closure(ctx4, half4):
    from kappatwist.poincare import (
        SPATIAL,
        lorentz_algebra_check,
        mhat,
        mij,
        realization,
    )
    from paper_reference import mhat_from_case_i

    ok = True
    n = 4
    # case ii: [B_i, B_j] = -i M_ij cosh(A), through fourth order in a0
    real2 = realization("ii", half4)
    b = {i: mhat(i, real2, half4) for i in SPATIAL}
    coshA = _cosh_of_A(half4)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        lhs = commutator(b[i], b[j])
        rhs = (mij(i, j, half4) * coshA).scale(-Scalar.i(n))
        ok &= lhs == rhs
    # cases i and iii close with a0-independent structure constants
    for case in ("i", "iii"):
        real = realization(case, ctx4)
        ok &= not lorentz_algebra_check(real, ctx4)
        bb = {i: mhat(i, real, ctx4) for i in SPATIAL}
        for i, j in ((1, 2), (1, 3), (2, 3)):
            # boost-boost and rotation-rotation brackets carry no a0 at
            # all; boost-rotation brackets close on the boosts themselves
            # with a0-independent structure constants (checked above)
            c1 = commutator(bb[i], bb[j])
            ok &= c1 == c1.grade_part(0)
        for (i, j), (k, l) in itertools.combinations(
            ((1, 2), (1, 3), (2, 3)), 2
        ):
            c2 = commutator(mij(i, j, ctx4), mij(k, l, ctx4))
            ok &= c2 == c2.grade_part(0)
    # the standard-basis boosts re-expressed through the case-i ones
    for i in SPATIAL:
        ok &= mhat(i, real2, half4) == mhat_from_case_i(i, half4)
    _report(7, "lorentz-closure", ok)


def _cosh_of_A(ctx):
    """cosh A = sum over even k of A^k / k!, truncated at the context order."""
    out = ctx.one
    for k in range(2, ctx.order + 1, 2):
        out = out + (ctx.A ** k).scale(Fraction(1, math.factorial(k)))
    return out


# 8 ---------------------------------------------------------------------


def test_criterion_08_rmatrix(ctx4):
    ctx = ctx4
    n = 4
    one = ctx.one
    lam = LambdaPoly.gen()
    lam_s = Scalar.from_value(LP_LAM, n)
    a0 = Scalar.a0(n)
    ok = tau0(ctx.rmatrix()) == ctx.rmatrix_inverse()
    # conjugation identities for all eight generators, mod the flipped set
    expected = {}
    for i in (1, 2, 3):
        expected[f"x{i}"] = tensor(x(i, n), ctx.z(lam - LambdaPoly.const(1)))
        expected[f"p{i}"] = tensor(
            p(i, n), ctx.z(LambdaPoly.const(1) - lam)
        ) + tensor(ctx.z(-lam), p(i, n))
    expected["x0"] = tensor(x(0, n), one) - tensor(one, ctx.S).scale(a0 * lam_s)
    expected["p0"] = tensor(p(0, n), one) + tensor(one, p(0, n))
    for name, want in expected.items():
        h = ctx.generator(name)
        conj = ctx.rmatrix_conjugate(h)
        ok &= conj == canonicalize(want, ctx.Rtilde)
        ok &= conj == ctx.coproduct_opposite(h)
    # second closed forms of the flipped coordinate coproducts
    for i in (1, 2, 3):
        ok &= ctx.rmatrix_conjugate(x(i, n)) == canonicalize(
            tensor(ctx.z(lam), x(i, n)), ctx.Rtilde
        )
    ok &= ctx.rmatrix_conjugate(x(0, n)) == canonicalize(
        tensor(one, x(0, n)) + tensor(ctx.S, one).scale(
            a0 * (Scalar.one(n) - lam_s)
        ),
        ctx.Rtilde,
    )
    # tau = tau0 R squares to the identity
    ok &= tau0(ctx.rmatrix()) * ctx.rmatrix() == TensorElement.one(n)
    _report(8, "rmatrix", ok)


# 9 ---------------------------------------------------------------------


def test_criterion_09_twist_axioms(ctx3):
    ok = ctx3.verify_cocycle() and ctx3.verify_counit()
    _report(9, "twist-axioms", ok)


# 10 --------------------------------------------------------------------


def test_criterion_10_star_products(ctx3):
    monos = [e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3]
    ok = True
    for ea in monos:
        for eb in monos:
            f = Polynomial.x_monomial(ea, 3)
            g = Polynomial.x_monomial(eb, 3)
            ok &= ctx3.star_product(f, g, "F") == ctx3.star_product(
                g, f, "Ftilde"
            )
    _report(10, "star-products", ok)


# 11 --------------------------------------------------------------------


def test_criterion_11_perturbative_expansion():
    from kappatwist.poincare import realization
    from kappatwist.rexpand import (
        expand,
        generate_ansatz,
        residual_through,
        wedge_check,
    )
    from paper_reference import (
        coefficient_wedge_check,
        particular_coefficients,
        reference_third_order,
        specialize,
        specialize_coefficients,
    )

    ctx = TwistContext(order=3, lam=Fraction(1, 2))
    real = realization("ii", ctx)
    ok = len(generate_ansatz(1, real, ctx)) == 4
    ok &= len(generate_ansatz(2, real, ctx)) == 10
    ok &= len(generate_ansatz(3, real, ctx)) == 28
    results = expand(3, real, ctx)
    ok &= [r.equations for r in results] == [7, 16, 35]
    r1, r2, r3 = results
    ok &= r1.status == "unique"
    ok &= {k: v for k, v in particular_coefficients(r1).items() if v} == {
        "Mh_i0 ox p_i": GaussianRational(-1),
        "p_i ox Mh_i0": GaussianRational(1),
    }
    ok &= r2.status == "unique" and r2.element.is_zero()
    ok &= r3.status == "parametric" and r3.dimension == 3
    # the family matches the published table; the cited specialization is
    # alpha1 = beta1 = -6, alpha2 = -2
    for params in ((-6, -6, -2), (0, 0, 0), (1, 2, 3)):
        ours = specialize(r3, *params, ctx)
        ok &= equal_mod(ours, reference_third_order(*params, real, ctx), ctx.Rtilde)
    # substitution: exp(r1+r2+r3) reproduces the R-matrix through a0^3
    residual = residual_through([r.element for r in results], ctx)
    ok &= all(residual.grade_part(k).is_zero() for k in (1, 2, 3))
    # wedge structure: r1 exactly; at third order whenever alpha1 == beta1
    ok &= wedge_check(r1.element)
    ok &= coefficient_wedge_check(specialize_coefficients(r3, -6, -6, -2))
    ok &= coefficient_wedge_check(specialize_coefficients(r3, 5, 5, 0))
    ok &= not coefficient_wedge_check(specialize_coefficients(r3, 1, 2, 3))
    _report(11, "perturbative-expansion", ok)


# 12 --------------------------------------------------------------------


def test_criterion_12_case_iii_infeasible():
    from kappatwist.poincare import realization
    from kappatwist.rexpand import expand

    ctx = TwistContext(order=3, lam=Fraction(1, 2))
    real = realization("iii", ctx)
    results = expand(3, real, ctx)
    ok = [r.status for r in results] == ["unique", "unique", "infeasible"]
    ok &= results[-1].equations == 35
    ok &= results[-1].solution.status == "infeasible"
    _report(12, "case-iii-infeasible", ok)


# 13 --------------------------------------------------------------------


def test_criterion_13_cli(capsys):
    from kappatwist.cli import run
    from kappatwist.parser import evaluate

    ctx = TwistContext(order=3)
    ok = True
    # round trip on canonical renderings
    for name in ("x0", "x1", "p0", "p1"):
        d = ctx.generator_coproduct(name)
        ok &= evaluate(str(d), ctx) == d
    # documented exit codes
    ok &= run(["coproduct", "--gen", "p1", "--lambda", "sym", "--order", "3"]) == 0
    out = capsys.readouterr().out.strip()
    ok &= out == "p1 ox Z^[-lam] + Z^[1-lam] ox p1"
    ok &= run(["eval", "exp("]) == 2
    capsys.readouterr()
    ok &= run(["verify", "--suite", "algebra", "--order", "2", "--quick"]) == 0
    capsys.readouterr()
    # deterministic JSON under a fixed seed
    args = [
        "verify", "--suite", "algebra", "--order", "2",
        "--seed", "5", "--quick", "--format", "json",
    ]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    payload = json.loads(first)
    ok &= json.loads(first)["checks"] == json.loads(second)["checks"]
    ok &= payload["passed"] is True
    args = ["rexpand", "--order", "1", "--case", "ii", "--format", "json"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    ok &= first == second
    payload = json.loads(first)
    ok &= (payload["c1"], payload["c2"], payload["d1"], payload["d2"]) == (
        "-1", "0", "0", "1"
    )
    _report(13, "cli", ok)

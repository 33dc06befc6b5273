"""Generalized Lorentz/Poincare realizations and their coproducts.

The boost generators are built from four profile functions of A,

    Bhat_i = x_i p0 F1(A) - x0 p_i F2(A) + a0 (x_k p_k) p_i F3(A)
             + a0 x_i p^2 F4(A),

with three preset cases: (i) the twist-adapted undeformed Lorentz sector,
(ii) the standard basis (lam = 1/2, deformed [B,B] = -i M cosh A), and
(iii) the naive boosts, whose coalgebra leaves the Poincare span.
Rotations M_ij = x_i p_j - x_j p_i are case independent.

The published coproduct of every generator is a template in the expression
grammar (CLOSED_FORMS, BOOST_CLOSED_FORMS); `closed_form_string` renders it
and `closed_form_coproduct` takes the rendered text to its canonical
tensor mod R.  The algebra-sector checks (`kappa_commutator_check`,
`lorentz_algebra_check`, `momentum_sector_closed_forms`) are the ones the
verify suites run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    ZERO_EXP, AlgebraElement, Monomial, _bump, commutator, exp_coeffs, p, power_series, x
)
from .hopf import TwistContext
from .parser import evaluate
from .scalars import LP_ONE, Scalar, UsageError
from .tensor import TensorElement, canonicalize

SPATIAL = (1, 2, 3)


class LorentzRealization(NamedTuple):
    """The four profile functions F1..F4 of the boost ansatz, as elements
    of the algebra (functions of A), plus the case (one of CASES)."""

    label: str
    f1: AlgebraElement
    f2: AlgebraElement
    f3: AlgebraElement
    f4: AlgebraElement


def _sinh_over_a(ctx: TwistContext) -> AlgebraElement:
    """sinh(A)/A = sum over even k of A^k/(k+1)!."""
    coeffs = exp_coeffs(ctx.order + 1)[1:]
    return power_series(ctx.A, [c if k % 2 == 0 else 0 for k, c in enumerate(coeffs)])


CASE_II_LAM = Fraction(1, 2)  # the one lam of case (ii), the standard basis


def case_lambda(case: str | None, lam):
    """The lam the realization `case` is read at, in a context at `lam`."""
    return CASE_II_LAM if case == "ii" else lam


def realization(case: str, ctx: TwistContext) -> LorentzRealization:
    n = ctx.order
    zero = AlgebraElement.zero(n)
    if case == "i":
        # F1 = (Z^(2-lam) - Z^(-lam)) / (2A) = Z^(1-lam) sinh(A)/A,
        # F2 = Z^lam, F3 = (1-lam) Z^lam, F4 = -Z^lam / 2
        lam = ctx.lam_poly
        zlam = ctx.z(lam)
        f1 = ctx.z(LP_ONE - lam) * _sinh_over_a(ctx)
        f3 = zlam.scale(LP_ONE - lam)
        return LorentzRealization("i", f1, zlam, f3, zlam.scale(Fraction(-1, 2)))
    if case == "ii":
        if ctx.lam != CASE_II_LAM:
            raise UsageError(f"case (ii) requires the lam = {CASE_II_LAM} context")
        return LorentzRealization("ii", _sinh_over_a(ctx), ctx.one, zero, zero)
    if case == "iii":
        return LorentzRealization("iii", ctx.one, ctx.one, zero, zero)
    raise UsageError(f"unknown realization case {case!r}")


def momentum_square(ctx: TwistContext) -> AlgebraElement:
    n = ctx.order
    acc = AlgebraElement.zero(n)
    for k in SPATIAL:
        acc = acc + p(k, n) * p(k, n)
    return acc


def mhat(i: int, real: LorentzRealization, ctx: TwistContext) -> AlgebraElement:
    """Boost generator for the given realization."""
    if i not in SPATIAL:
        raise UsageError("boost index must be spatial (1..3)")
    n = ctx.order
    a0 = Scalar.a0(n)
    out = x(i, n) * p(0, n) * real.f1
    out = out - x(0, n) * p(i, n) * real.f2
    if not real.f3.is_zero():
        out = out + (ctx.S * p(i, n) * real.f3).scale(a0)
    if not real.f4.is_zero():
        out = out + (x(i, n) * momentum_square(ctx) * real.f4).scale(a0)
    return out


def mij(i: int, j: int, ctx: TwistContext) -> AlgebraElement:
    """Rotation generator x_i p_j - x_j p_i, as two monomials (nothing contracts)."""
    if i not in SPATIAL or j not in SPATIAL or i == j:
        raise UsageError("rotation indices must be distinct spatial indices")
    xi_pj = Monomial(_bump(ZERO_EXP, i), _bump(ZERO_EXP, j))
    one = Scalar.one(ctx.order)
    return AlgebraElement({xi_pj: one, Monomial(xi_pj.beta, xi_pj.alpha): -one}, ctx.order)


def kappa_commutator_check(ctx: TwistContext) -> list[str]:
    """[xhat_mu, xhat_nu] = i(a_mu xhat_nu - a_nu xhat_mu), a = (a0,0,0,0);
    the names of the failing pairs, empty when all hold."""
    n = ctx.order
    i_a0 = Scalar.i(n) * Scalar.a0(n)
    failed = []
    for mu in range(4):
        for nu in range(4):
            lhs = commutator(ctx.xhat(mu), ctx.xhat(nu))
            rhs = AlgebraElement.zero(n)
            if mu == 0:
                rhs = rhs + ctx.xhat(nu).scale(i_a0)
            if nu == 0:
                rhs = rhs - ctx.xhat(mu).scale(i_a0)
            if lhs != rhs:
                failed.append(f"[xhat{mu},xhat{nu}]")
    return failed


def lorentz_coproduct(i: int, real: LorentzRealization, ctx: TwistContext) -> TensorElement:
    """Coproduct of the boost, by twist conjugation."""
    return ctx.coproduct(mhat(i, real, ctx))


# The published coproducts of the plain generators (hopf.GENERATORS), by
# name; {g} is the generator.  The rotations M[i,j] are primitive too.
_PRIMITIVE = "{g} ox 1 + 1 ox {g}"
CLOSED_FORMS = {
    "x0": "x0 ox 1 + a0*(1-lam) ox S",
    **dict.fromkeys(("x1", "x2", "x3"), "Z^[lam-1] ox {g}"),
    **dict.fromkeys(("p1", "p2", "p3"), "{g} ox Z^[-lam] + Z^[1-lam] ox {g}"),
    **dict.fromkeys(("p0", "A", "S"), _PRIMITIVE),
    "Z": "Z ox Z",
}

# The published boost coproducts, one template per preset case: {i} is the
# boost index and {j} < {k} are the other two spatial indices.
BOOST_CLOSED_FORMS = {
    "i": (
        "Mhat[{i},0] ox 1 + Z ox Mhat[{i},0]"
        " - a0*Z^[lam]*p{j} ox M[{i},{j}] - a0*Z^[lam]*p{k} ox M[{i},{k}]"
    ),
    "ii": (
        "Mhat[{i},0] ox Z^[-1/2] + Z^[1/2] ox Mhat[{i},0]"
        " + 1/2*a0*M[{i},{j}]*Z^[1/2] ox p{j} + 1/2*a0*M[{i},{k}]*Z^[1/2] ox p{k}"
        " - 1/2*a0*p{j} ox M[{i},{j}]*Z^[-1/2] - 1/2*a0*p{k} ox M[{i},{k}]*Z^[-1/2]"
    ),
    "iii": (
        "x{i}*p0 ox Z^[lam] + Z^[lam-1] ox x{i}*p0"
        " - x0*p{i} ox Z^[-lam] - Z^[1-lam] ox x0*p{i}"
        " - a0*(1-lam)*p{i} ox S*Z^[-lam]"
        " + a0*lam*S*Z^[1-lam] ox p{i}"
    ),
}
CASES = tuple(BOOST_CLOSED_FORMS)  # the preset realization cases


def boost_closed_form_string(i: int, case: str) -> str:
    """The published coproduct of the boost Mhat[i,0] in case i, ii or iii."""
    if i not in SPATIAL:
        raise UsageError("boost index must be spatial (1..3)")
    if case not in BOOST_CLOSED_FORMS:
        raise UsageError(f"unknown case {case!r}")
    j, k = (m for m in SPATIAL if m != i)
    return BOOST_CLOSED_FORMS[case].format(i=i, j=j, k=k)


def closed_form_string(node, case: str | None) -> str:
    """The published coproduct of the single generator `node`, a parsed
    expression: a plain generator, a rotation M[i,j], or a boost Mhat[i,0]
    in the preset `case`."""
    kind = node[0]
    if kind == "gen":
        return CLOSED_FORMS[node[1]].format(g=node[1])
    if kind == "M":
        return _PRIMITIVE.format(g=f"M[{node[1]},{node[2]}]")
    if kind == "Mhat":
        if case is None:
            raise UsageError(f"boost coproducts need --case {'|'.join(CASES)}")
        return boost_closed_form_string(node[1], case)
    raise UsageError("--gen must name a single generator")


def closed_form_coproduct(
    text: str, ctx: TwistContext, case: str | None = None
) -> TensorElement:
    """A published coproduct `text` (`closed_form_string`), canonical mod R;
    `case` is the realization its Mhat generators are read in."""
    return canonicalize(evaluate(text, ctx, case), ctx.R)


def boost_coproduct_closed_form(
    i: int, real: LorentzRealization, ctx: TwistContext
) -> TensorElement:
    """The published closed forms for the three preset cases, canonical mod R."""
    return closed_form_coproduct(
        boost_closed_form_string(i, real.label), ctx, real.label
    )


# -- algebra sector ------------------------------------------------------


def _delta(i: int, j: int) -> int:
    return 1 if i == j else 0


def lorentz_algebra_check(real: LorentzRealization, ctx: TwistContext) -> list[str]:
    """Commutator structure of the boost/rotation sector: the names of the
    failing commutators, empty when all hold.

    Cases (i) and (iii) must reproduce the undeformed structure constants;
    case (ii) deforms only [B_i, B_j] into -i M_ij cosh A.
    """
    n = ctx.order
    i_s = Scalar.i(n)
    boosts = {i: mhat(i, real, ctx) for i in SPATIAL}
    rots = {(i, j): mij(i, j, ctx) for i in SPATIAL for j in SPATIAL if i != j}

    def rot(i, j):
        if i == j:
            return AlgebraElement.zero(n)
        return rots[(i, j)]

    if real.label == "ii":
        cosh_a = (ctx.z(1) + ctx.z(-1)).scale(Fraction(1, 2))
    else:
        cosh_a = ctx.one

    failed = []

    def check(name: str, lhs: AlgebraElement, rhs: AlgebraElement) -> None:
        if lhs != rhs:
            failed.append(name)

    for i in SPATIAL:
        for j in SPATIAL:
            if i < j:
                check(
                    f"[B{i},B{j}]",
                    commutator(boosts[i], boosts[j]),
                    (rot(i, j) * cosh_a).scale(-i_s),
                )
    for i in SPATIAL:
        for j in SPATIAL:
            for k in SPATIAL:
                if j < k:
                    check(
                        f"[B{i},M{j}{k}]",
                        commutator(boosts[i], rot(j, k)),
                        boosts[j].scale(i_s * _delta(i, k))
                        - boosts[k].scale(i_s * _delta(i, j)),
                    )
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        for (k, l) in ((1, 2), (1, 3), (2, 3)):
            check(
                f"[M{i}{j},M{k}{l}]",
                commutator(rot(i, j), rot(k, l)),
                -(
                    rot(i, l).scale(i_s * _delta(j, k))
                    + rot(j, k).scale(i_s * _delta(i, l))
                    - rot(i, k).scale(i_s * _delta(j, l))
                    - rot(j, l).scale(i_s * _delta(i, k))
                ),
            )
    return failed


def momentum_sector_closed_forms(
    real: LorentzRealization, ctx: TwistContext
) -> list[str]:
    """[B_i, p_mu] closed forms, every right-hand side momentum-only: the
    names of the failing ones, empty when all hold.

    [B_i, p0] = i p_i F2(A);
    [B_i, p_j] = i delta_ij (p0 F1(A) + a0 p^2 F4(A)) + i a0 p_i p_j F3(A).
    """
    n = ctx.order
    i_s = Scalar.i(n)
    a0 = Scalar.a0(n)
    psq = momentum_square(ctx)
    failed = []
    for i in SPATIAL:
        b = mhat(i, real, ctx)
        lhs = commutator(b, p(0, n))
        rhs = (p(i, n) * real.f2).scale(i_s)
        if lhs != rhs:
            failed.append(f"[B{i},p0]")
        for j in SPATIAL:
            lhs = commutator(b, p(j, n))
            rhs = AlgebraElement.zero(n)
            if i == j:
                rhs = rhs + (p(0, n) * real.f1).scale(i_s)
                if not real.f4.is_zero():
                    rhs = rhs + (psq * real.f4).scale(i_s * a0)
            if not real.f3.is_zero():
                rhs = rhs + (p(i, n) * p(j, n) * real.f3).scale(i_s * a0)
            if lhs != rhs:
                failed.append(f"[B{i},p{j}]")
    return failed

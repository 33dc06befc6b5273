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
verify suites run; each lists its (name, a, b, [a, b] wanted) brackets
for one comparison loop, `_failures`.  The closure check reads so(3,1)
off one structure-constant formula over M_mu,nu, with M_i0 = B_i = -M_0i
and M_ij the rotations:

    [M_mu,nu, M_rho,sigma] = -i(eta_nu,rho M_mu,sigma - eta_mu,rho M_nu,sigma
                                - eta_nu,sigma M_mu,rho + eta_mu,sigma M_nu,rho)

with eta = algebra.ETA, the [B_i, B_j] side times cosh A in case (ii).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .algebra import (
    ETA, ZERO_EXP, AlgebraElement, Monomial, _bump, commutator, exp_coeffs, p, power_series, x
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


def _failures(entries) -> list[str]:
    """The names of the (name, a, b, want) entries with [a, b] != want."""
    return [name for name, a, b, want in entries if commutator(a, b) != want]


def kappa_commutator_check(ctx: TwistContext) -> list[str]:
    """[xhat_mu, xhat_nu] = i(a_mu xhat_nu - a_nu xhat_mu), a = (a0,0,0,0);
    the names of the failing pairs, empty when all hold."""
    xh = [ctx.xhat(mu) for mu in range(4)]
    i_a = (Scalar.i(ctx.order) * Scalar.a0(ctx.order), 0, 0, 0)
    return _failures(
        (
            f"[xhat{mu},xhat{nu}]",
            xh[mu],
            xh[nu],
            xh[nu].scale(i_a[mu]) - xh[mu].scale(i_a[nu]),
        )
        for mu in range(4)
        for nu in range(4)
    )


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


def lorentz_algebra_check(real: LorentzRealization, ctx: TwistContext) -> list[str]:
    """Commutator structure of the boost/rotation sector: the names of the
    failing commutators, empty when all hold.

    The six generators M_mu,nu are the boosts M_i0 = B_i = -M_0i and the
    rotations M_ij, and each unordered pair of them is checked once against

        [M_mu,nu, M_rho,sigma] = -i(eta_nu,rho M_mu,sigma - eta_mu,rho M_nu,sigma
                                    - eta_nu,sigma M_mu,rho + eta_mu,sigma M_nu,rho)

    with eta = ETA: [B_i, B_j] = -i M_ij and [B_i, M_jk] = i(delta_ik B_j -
    delta_ij B_k).  Cases (i) and (iii) reproduce these undeformed structure
    constants; case (ii) deforms only [B_i, B_j] into -i M_ij cosh A.
    """
    n = ctx.order
    gens = {(i, 0): mhat(i, real, ctx) for i in SPATIAL}
    gens.update({(i, j): mij(i, j, ctx) for i, j in combinations(SPATIAL, 2)})
    minus_i = -Scalar.i(n)
    cosh_a = None
    if real.label == "ii":
        cosh_a = (ctx.z(1) + ctx.z(-1)).scale(Fraction(1, 2))

    def gen(mu: int, nu: int) -> AlgebraElement:
        return gens[mu, nu] if (mu, nu) in gens else -gens[nu, mu]

    def want(mu: int, nu: int, rho: int, sigma: int) -> AlgebraElement:
        rhs = AlgebraElement.zero(n)
        for sign, (e1, e2), (a, b) in (
            (1, (nu, rho), (mu, sigma)),
            (-1, (mu, rho), (nu, sigma)),
            (-1, (nu, sigma), (mu, rho)),
            (1, (mu, sigma), (nu, rho)),
        ):
            if e1 == e2:  # eta is diagonal
                rhs = rhs + gen(a, b).scale(minus_i * (sign * ETA[e1]))
        return rhs * cosh_a if cosh_a is not None and nu == sigma == 0 else rhs

    def name(mu: int, nu: int) -> str:
        return f"B{mu}" if nu == 0 else f"M{mu}{nu}"

    # the [B,B] pairs, then [B,M], then [M,M]
    pairs = sorted(combinations(gens, 2), key=lambda pair: sum(nu > 0 for _, nu in pair))
    return _failures(
        (f"[{name(*k1)},{name(*k2)}]", gens[k1], gens[k2], want(*k1, *k2))
        for k1, k2 in pairs
    )


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

    def want(i: int, mu: int) -> AlgebraElement:
        if mu == 0:
            return (p(i, n) * real.f2).scale(i_s)
        rhs = AlgebraElement.zero(n)
        if i == mu:
            rhs = rhs + (p(0, n) * real.f1).scale(i_s)
            if not real.f4.is_zero():
                rhs = rhs + (psq * real.f4).scale(i_s * a0)
        if not real.f3.is_zero():
            rhs = rhs + (p(i, n) * p(mu, n) * real.f3).scale(i_s * a0)
        return rhs

    boosts = {i: mhat(i, real, ctx) for i in SPATIAL}
    return _failures(
        (f"[B{i},p{mu}]", boosts[i], p(mu, n), want(i, mu))
        for i in SPATIAL
        for mu in range(4)
    )

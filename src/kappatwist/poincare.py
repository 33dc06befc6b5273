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
and `closed_form_coproduct` takes it to its canonical tensor mod R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    Monomial,
    ZERO_EXP,
    _bump,
    commutator,
    exp_coeffs,
    p,
    power_series,
    x,
)
from .hopf import COORDINATES, TwistContext
from .linsolve import SolutionSpace, fit
from .parser import elaborate, parse
from .scalars import LP_ONE, Scalar, UsageError
from .tensor import TensorElement, canonicalize, tensor

SPATIAL = (1, 2, 3)


@dataclass(frozen=True)
class LorentzRealization:
    """The four profile functions F1..F4 of the boost ansatz, as elements
    of the algebra (functions of A), plus the case ("i", "ii" or "iii")."""

    label: str
    f1: AlgebraElement
    f2: AlgebraElement
    f3: AlgebraElement
    f4: AlgebraElement


def _sinh_over_a(ctx: TwistContext) -> AlgebraElement:
    """sinh(A)/A = sum over even k of A^k/(k+1)!."""
    coeffs = exp_coeffs(ctx.order + 1)[1:]
    return power_series(ctx.A, [c if k % 2 == 0 else 0 for k, c in enumerate(coeffs)])


def realization(case: str, ctx: TwistContext) -> LorentzRealization:
    n = ctx.order
    zero = AlgebraElement.zero(n)
    if case == "i":
        # F1 = (Z^(2-lam) - Z^(-lam)) / (2A) = Z^(1-lam) sinh(A)/A,
        # F2 = Z^lam, F3 = (1-lam) Z^lam, F4 = -Z^lam / 2
        lam = ctx.lam_poly
        zlam = ctx.z(lam)
        f1 = ctx.z(LP_ONE - lam) * _sinh_over_a(ctx)
        f3 = zlam.scale(Scalar.one(n) - ctx.lam_s)
        return LorentzRealization("i", f1, zlam, f3, zlam.scale(Fraction(-1, 2)))
    if case == "ii":
        if ctx.lam != Fraction(1, 2):
            raise UsageError("case (ii) requires the lam = 1/2 context")
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
    """Rotation generator x_i p_j - x_j p_i."""
    if i not in SPATIAL or j not in SPATIAL or i == j:
        raise UsageError("rotation indices must be distinct spatial indices")
    n = ctx.order
    return x(i, n) * p(j, n) - x(j, n) * p(i, n)


def kappa_commutator_check(ctx: TwistContext) -> bool:
    """[xhat_mu, xhat_nu] = i(a_mu xhat_nu - a_nu xhat_mu), a = (a0,0,0,0)."""
    n = ctx.order
    i_a0 = Scalar.i(n) * Scalar.a0(n)
    for mu in range(4):
        for nu in range(4):
            lhs = commutator(ctx.xhat(mu), ctx.xhat(nu))
            rhs = AlgebraElement.zero(n)
            if mu == 0:
                rhs = rhs + ctx.xhat(nu).scale(i_a0)
            if nu == 0:
                rhs = rhs - ctx.xhat(mu).scale(i_a0)
            if lhs != rhs:
                return False
    return True


def lorentz_coproduct(
    i: int, real: LorentzRealization, ctx: TwistContext, method: str = "twist"
) -> TensorElement:
    """Coproduct of the boost, by twist conjugation or by homomorphism."""
    return ctx.coproduct_by(mhat(i, real, ctx), method)


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
            raise UsageError("boost coproducts need --case i|ii|iii")
        return boost_closed_form_string(node[1], case)
    raise UsageError("--gen must name a single generator")


def closed_form_coproduct(
    node, ctx: TwistContext, case: str | None = None
) -> TensorElement:
    """The published coproduct of `node` (`closed_form_string`), canonical mod R."""
    text = closed_form_string(node, case)
    return canonicalize(elaborate(parse(text), ctx, case), ctx.R)


def _closed_form_legs(i: int, case: str) -> list[tuple[int, tuple, tuple]]:
    """(sign, left leg, right leg) of each parsed term of a closed form."""
    return [
        (sign, left, right)
        for sign, (_, left, right) in parse(boost_closed_form_string(i, case))[1]
    ]


def _generator_names(node) -> set[str]:
    """The plain generators (hopf.GENERATORS) named in a parsed expression."""
    if isinstance(node, tuple) and node[:1] == ("gen",):
        return {node[1]}
    if isinstance(node, (tuple, list)):
        return set().union(*map(_generator_names, node))
    return set()


def _leg_kind(leg) -> str:
    """'dilatation' for a leg naming S, 'coordinate' for a leg with a bare
    coordinate generator, '' for Poincare content (momenta, Z-powers, boosts
    and rotations)."""
    names = _generator_names(leg)
    if "S" in names:
        return "dilatation"
    if names.intersection(COORDINATES):
        return "coordinate"
    return ""


def boost_coproduct_closed_form(
    i: int, real: LorentzRealization, ctx: TwistContext
) -> TensorElement:
    """The published closed forms for the three preset cases, canonical mod R."""
    return closed_form_coproduct(("Mhat", i), ctx, real.label)


def nonpoincare_leg_kinds(i: int, real: LorentzRealization) -> set[str]:
    """Leg kinds in the boost coproduct that fall outside the Poincare span.

    The closed forms (verified equal to the computed coproducts mod R) use
    only Lorentz-generator and momentum legs for cases (i) and (ii).  Case
    (iii) needs bare coordinate-momentum legs (x_i p0 and x0 p_i appear with
    different cofactors, so they never assemble into the boost) and the
    dilatation x_k p_k: the gl(4)-type content of the extension.  The kinds
    are read off the parsed closed form.
    """
    kinds = set()
    for _, left, right in _closed_form_legs(i, real.label):
        kinds |= {_leg_kind(left), _leg_kind(right)}
    return kinds - {""}


def case_iii_x_leg_mismatch(i: int, ctx: TwistContext) -> bool:
    """The bare x_i p0 and x0 p_i legs of the case (iii) coproduct carry
    different cofactors, so they cannot be regrouped into the boost.

    Returns True when the mismatch is present (i.e. the coproduct does not
    close in the Poincare span)."""
    n = ctx.order
    xi_p0 = Monomial(_bump(ZERO_EXP, i), _bump(ZERO_EXP, 0))
    x0_pi = Monomial(_bump(ZERO_EXP, 0), _bump(ZERO_EXP, i))
    legs = _closed_form_legs(i, "iii")

    # If the coordinate bilinears assembled into M~_{i0} = x_i p0 - x0 p_i,
    # the cofactor of x0 p_i would be minus the cofactor of x_i p0 on each
    # side of the tensor product.
    mismatch = False
    for side in (0, 1):
        xi_cof = AlgebraElement.zero(n)
        x0_cof = AlgebraElement.zero(n)
        for sign, left, right in legs:
            if _leg_kind((left, right)[side]) != "coordinate":
                continue
            term = elaborate(("tensor", left, right), ctx)
            for key, s in term.terms.items():
                cof = AlgebraElement.monomial(key[1 - side], n, s if sign > 0 else -s)
                if key[side] == xi_p0:
                    xi_cof = xi_cof + cof
                elif key[side] == x0_pi:
                    x0_cof = x0_cof + cof
                else:
                    mismatch = True
        if xi_cof != -x0_cof:
            mismatch = True
    return mismatch


def rotation_coproduct_closed_form(i: int, j: int, ctx: TwistContext) -> TensorElement:
    """The published (primitive) coproduct of M[i,j], canonical mod R."""
    return closed_form_coproduct(("M", i, j), ctx)


# -- algebra sector ------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: str = ""


def _delta(i: int, j: int) -> int:
    return 1 if i == j else 0


def lorentz_algebra_check(real: LorentzRealization, ctx: TwistContext) -> list[CheckResult]:
    """Commutator structure of the boost/rotation sector.

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

    results = []

    def check(name: str, lhs: AlgebraElement, rhs: AlgebraElement) -> None:
        passed = lhs == rhs
        results.append(CheckResult(name, passed, "" if passed else str(lhs - rhs)))

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
    return results


def momentum_sector_closed_forms(
    real: LorentzRealization, ctx: TwistContext
) -> list[CheckResult]:
    """[B_i, p_mu] closed forms; every right-hand side is momentum-only.

    [B_i, p0] = i p_i F2(A);
    [B_i, p_j] = i delta_ij (p0 F1(A) + a0 p^2 F4(A)) + i a0 p_i p_j F3(A).
    """
    n = ctx.order
    i_s = Scalar.i(n)
    a0 = Scalar.a0(n)
    psq = momentum_square(ctx)
    results = []
    for i in SPATIAL:
        b = mhat(i, real, ctx)
        lhs = commutator(b, p(0, n))
        rhs = (p(i, n) * real.f2).scale(i_s)
        results.append(CheckResult(f"[B{i},p0]", lhs == rhs))
        for j in SPATIAL:
            lhs = commutator(b, p(j, n))
            rhs = AlgebraElement.zero(n)
            if i == j:
                rhs = rhs + (p(0, n) * real.f1).scale(i_s)
                if not real.f4.is_zero():
                    rhs = rhs + (psq * real.f4).scale(i_s * a0)
            if not real.f3.is_zero():
                rhs = rhs + (p(i, n) * p(j, n) * real.f3).scale(i_s * a0)
            results.append(CheckResult(f"[B{i},p{j}]", lhs == rhs))
    return results


def mhat_from_case_i(i: int, ctx: TwistContext) -> AlgebraElement:
    """Standard-basis boost via the case-(i) generators at lam = 1/2:
    Bhat_i = B_i Z^(-1/2) + (a0/2) M_ij p_j."""
    if ctx.lam != Fraction(1, 2):
        raise UsageError("the M <-> Mhat relation needs lam = 1/2")
    n = ctx.order
    case_i = realization("i", ctx)
    out = mhat(i, case_i, ctx) * ctx.z(Fraction(-1, 2))
    for j in SPATIAL:
        if j == i:
            continue
        out = out + (mij(i, j, ctx) * p(j, n)).scale(
            Scalar.a0(n) * Fraction(1, 2)
        )
    return out


def coproduct_homomorphism_check(
    real: LorentzRealization, ctx: TwistContext, i: int = 1, j: int = 2
) -> bool:
    """Delta([B_i, B_j]) == [Delta B_i, Delta B_j] mod R."""
    bi = mhat(i, real, ctx)
    bj = mhat(j, real, ctx)
    lhs = ctx.coproduct(commutator(bi, bj))
    rhs = canonicalize(commutator(ctx.coproduct(bi), ctx.coproduct(bj)), ctx.R)
    return lhs == rhs


# -- noncommutative coordinate coproducts --------------------------------


def xhat_coproduct(mu: int, ctx: TwistContext) -> TensorElement:
    """Coproduct of xhat_mu: the class of xhat_mu (x) 1, canonical mod R."""
    return canonicalize(tensor(ctx.xhat(mu), ctx.one), ctx.R)


def xhat_coproduct_compact(mu: int, ctx: TwistContext) -> TensorElement:
    """Z^-1 (x) xhat_mu - a_mu p^L_alpha (x) xhat^alpha, canonical mod R.

    The a_mu p^L_0 product is expanded exactly as 1 - Z^-1, avoiding the
    truncated division by a0.
    """
    n = ctx.order
    zinv = ctx.z(-1)
    out = tensor(zinv, ctx.xhat(mu))
    if mu == 0:
        # -a0 * (eta^{00} p^L_0 (x) xhat_0 + p^L_k (x) xhat_k)
        out = out + tensor(ctx.one - zinv, ctx.xhat(0))
        for k in SPATIAL:
            out = out - tensor(
                p(k, n) * ctx.z(ctx.lam_poly - LP_ONE), ctx.xhat(k)
            ).scale(Scalar.a0(n))
    return canonicalize(out, ctx.R)


def p_leftward(mu: int, ctx: TwistContext) -> AlgebraElement:
    """Leftward momenta: p^L_0 = (1 - Z^-1)/a0, p^L_i = p_i Z^(lam-1).

    The division by a0 shifts the grading down; the top truncation slot of
    p^L_0 is unknowable at this order and is set to zero.
    """
    n = ctx.order
    if mu == 0:
        diff = ctx.one - ctx.z(-1)
        return AlgebraElement(
            {m: s.divide_by_a0() for m, s in diff.terms.items()}, n
        )
    return p(mu, n) * ctx.z(ctx.lam_poly - LP_ONE)


# -- order-a0 coalgebra span test ----------------------------------------


def boost_coproduct_order1_match(
    real: LorentzRealization, ctx: TwistContext, i: int = 1
) -> SolutionSpace:
    """Fit the order-a0 part of the boost coproduct with the rotation-
    invariant order-a0 ansatz built from the boost, rotations and momenta.

    For case (ii) the unique solution reproduces the published first-order
    coefficients.  (Working modulo the relation ideal, first order alone
    does not yet separate case (iii); its non-closure is detected
    structurally by `nonpoincare_leg_kinds`.)
    """
    if ctx.lam is None:
        raise UsageError("span matching needs a rational lam")
    n = ctx.order
    b = mhat(i, real, ctx)
    rots = {j: mij(i, j, ctx) for j in SPATIAL if j != i}
    one = ctx.one

    def sum_rot(builder):
        acc = TensorElement.zero(n)
        for j, m in rots.items():
            acc = acc + builder(j, m)
        return acc

    candidates = [
        tensor(b, p(0, n)),
        tensor(p(0, n), b),
        tensor(b * p(0, n), one),
        tensor(one, b * p(0, n)),
        sum_rot(lambda j, m: tensor(m * p(j, n), one)),
        sum_rot(lambda j, m: tensor(m, p(j, n))),
        sum_rot(lambda j, m: tensor(p(j, n), m)),
        sum_rot(lambda j, m: tensor(one, m * p(j, n))),
    ]
    primitive = tensor(b, one) + tensor(one, b)
    target = ctx.coproduct(b) - canonicalize(primitive, ctx.R)
    columns = [
        canonicalize(c.scale(Scalar.a0(n)), ctx.R) for c in candidates
    ]
    return fit(target, columns, (0, 1))

"""The paper's published results as reference checks for the tests.

These helpers rebuild what the paper reports by other routes than the
engine takes, so the tests can hold the engine's output against them:
the three-parameter family of the third-order R-matrix term, case (iii)'s
failure to close in the Poincare span, the first-order boost fit, the
leftward momenta and the compact coordinate coproducts.  They are test
support, not engine code: nothing in `kappatwist` calls them.

The last helpers are the engine paths that only the tests use: the
three-leg route for the cocycle condition (the outer product `tensor3`,
`embed`, the split exponents and their image in the tensor cube), the
specialisation of a symbolic lambda to a rational value, and the generic
routes that the engine's closed forms replaced: the deformed coproducts as
a commutator series canonicalized afterwards, and the multiplicative
extension one monomial at a time.  Last come the members of the twist
family written out per relation set, with lam and 1-lam by hand, as the
engine wrote them before it read every one off its (sigma, tau) pair, and
the commutator's own walk over the pairs of terms, as it was before the
commutator became the product's walk over `key_commutator` pairs, the
lam-polynomial class as it was before `LambdaPoly` became a Scalar at
truncation order 0, and the boost/rotation closure check as three blocks
written by hand, as it was before it read every bracket off one
structure-constant formula.  The last two are the rexpand column as a
full canonicalization of the scaled ansatz term, as it was before it was
read off the term's grade-0 part by exponent arithmetic, and the
coefficient product as the general double loop alone, as it was before
one-term operands got their own path.  Last of all is the fit as it read
its rows off graded elements at given a0 grades, as it was before
`linsolve.fit` took {key: number} maps; `numbers_by_grade` turns a graded
element into such a map.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from kappatwist.algebra import (
    AlgebraElement,
    Monomial,
    SparseElement,
    UNIT_MONOMIAL,
    ZERO_EXP,
    Polynomial,
    _bump,
    act,
    commutator,
    dilatation,
    exp_coeffs,
    key_commutator,
    p,
    power_series,
    x,
    z_power,
)
from kappatwist.hopf import (
    COORDINATES,
    MOMENTA,
    CommutingTriple,
    TwistContext,
    _spatial_parts,
    _split_exponent,
)
from kappatwist.linsolve import SolutionSpace, fit, solve
from kappatwist.parser import elaborate, parse
from kappatwist.poincare import (
    SPATIAL,
    LorentzRealization,
    boost_closed_form_string,
    closed_form_coproduct,
    closed_form_string,
    mhat,
    mij,
    realization,
)
from kappatwist.rexpand import (
    I_NEG,
    PAPER_NAMES,
    AnsatzTerm,
    ExpansionResult,
    assemble,
    generate_ansatz,
)
from kappatwist.scalars import (
    GR_ZERO,
    LP_ONE,
    DomainError,
    GaussianRational,
    Scalar,
    Terms,
    UsageError,
    _add,
    _build,
    _exact,
    _gr,
    _mul,
    _neg,
    _normed,
    _scale,
    _substitute,
    exact_triple,
)
from kappatwist.tensor import (
    TensorElement,
    TensorElement3,
    canonicalize,
    tau0,
    tensor,
)


def particular_coefficients(result: ExpansionResult) -> dict[str, GaussianRational]:
    """Term name -> coefficient in the particular solution of a solved order."""
    return {t.name: c for t, c in zip(result.terms, result.solution.particular)}


def specialize_coefficients(
    result: ExpansionResult, alpha1, beta1, alpha2
) -> dict[str, GaussianRational]:
    """Named coefficients of the k=3 family member with the given
    parameter values."""
    if result.order != 3 or result.status != "parametric":
        raise UsageError("specialization needs the parametric order-3 family")
    sol = result.solution
    want = [GaussianRational(v) for v in (alpha1, beta1, alpha2)]
    index = {t.name: i for i, t in enumerate(result.terms)}
    # parameter value = factor * (particular + sum_f t_f * null_f) at the
    # watched coefficient positions; solve the small square system for t.
    rows = []
    rhs = []
    for (tname, _, factor), target in zip(PAPER_NAMES[3], want):
        col = index[tname]
        rows.append([factor * vec[col] for vec in sol.nullspace])
        rhs.append(target - factor * sol.particular[col])
    small = solve(rows, rhs)
    if small.status != "unique":
        raise UsageError("parameter labels do not pin down the family member")
    coeffs = list(sol.particular)
    for t_val, vec in zip(small.particular, sol.nullspace):
        coeffs = [c + t_val * v for c, v in zip(coeffs, vec)]
    return {t.name: c for t, c in zip(result.terms, coeffs)}


def specialize(
    result: ExpansionResult, alpha1, beta1, alpha2, ctx: TwistContext
) -> TensorElement:
    """Pick the member of the k=3 family with the given parameter values."""
    coeffs = specialize_coefficients(result, alpha1, beta1, alpha2)
    return assemble(
        result.terms, [coeffs[t.name] for t in result.terms], 3, ctx
    )


def _mirror_name(name: str) -> str:
    left, right = name.split(" ox ")
    return f"{right} ox {left}"


def coefficient_wedge_check(coefficients: dict[str, GaussianRational]) -> bool:
    """Flip-antisymmetry of the named coefficient table: the mirror of
    every term must appear with the opposite coefficient.

    This is strictly stronger than flip-antisymmetry of the assembled
    element, because distinct named terms share concrete monomials at
    index coincidences.
    """
    return all(
        coefficients.get(_mirror_name(name), GR_ZERO) == -c
        for name, c in coefficients.items()
    )


def reference_third_order(
    alpha1, beta1, alpha2, real: LorentzRealization, ctx: TwistContext
) -> TensorElement:
    """The known three-parameter family at order 3, assembled from its
    published coefficient table (times -i a0^3 / 24)."""
    a1, b1, a2 = (GaussianRational(v) for v in (alpha1, beta1, alpha2))
    two = GaussianRational(2)
    table = {
        "Mh_i0*p_0^2 ox p_i": GaussianRational(3),
        "p_i ox Mh_i0*p_0^2": GaussianRational(-3),
        "Mh_i0 ox p_i*p_0^2": GaussianRational(3),
        "p_i*p_0^2 ox Mh_i0": GaussianRational(-3),
        "Mh_i0*p_0 ox p_i*p_0": two,
        "p_i*p_0 ox Mh_i0*p_0": -two,
        "Mh_i0*p_i*p_j ox p_j": -(a1 + two),
        "p_j ox Mh_i0*p_i*p_j": b1 + two,
        "Mh_i0*p_j^2 ox p_i": a1,
        "p_i ox Mh_i0*p_j^2": -b1,
        "Mh_i0 ox p_i*p_j^2": -two,
        "p_i*p_j^2 ox Mh_i0": two,
        "Mh_i0*p_i ox p_j^2": -(a2 + two),
        "p_j^2 ox Mh_i0*p_i": a2 + two,
        "Mh_i0*p_j ox p_i*p_j": a2 + two,
        "p_i*p_j ox Mh_i0*p_j": -(a2 + two),
        "M_ij*p_j*p_0 ox p_i": -a1,
        "p_i ox M_ij*p_j*p_0": b1,
        "M_ij*p_j ox p_i*p_0": -a2,
        "p_i*p_0 ox M_ij*p_j": a2,
    }
    terms = generate_ansatz(3, real, ctx)
    scale = Fraction(1, 24)
    coeffs = [table.get(t.name, GR_ZERO) * scale for t in terms]
    return assemble(terms, coeffs, 3, ctx)


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
    return closed_form_coproduct(closed_form_string(("M", i, j), None), ctx)


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

    p^L_0 is built as p0 (1 - exp(-A))/A, the series of 1/(k+1)! (-A)^k,
    so no division by a0 is taken.  That division shifts the grading down:
    the top truncation slot of p^L_0 is unknowable at this order and is
    left zero.
    """
    n = ctx.order
    if mu == 0:
        return p(0, n) * power_series(-ctx.A, exp_coeffs(n)[1:])
    return p(mu, n) * ctx.z(ctx.lam_poly - LP_ONE)


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
    grades = (0, 1)
    return fit(
        numbers_by_grade(target, grades),
        [numbers_by_grade(c, grades) for c in columns],
    )


def embed(t: TensorElement, at: int) -> TensorElement3:
    """Insert a unit leg at position `at` (0, 1 or 2): at=1 sends
    u (x) v to u (x) 1 (x) v."""
    return TensorElement3(
        {(*k[:at], UNIT_MONOMIAL, *k[at:]): s for k, s in t.terms.items()}, t.order
    )


def tensor3(a: AlgebraElement, b: AlgebraElement, c: AlgebraElement) -> TensorElement3:
    """a (x) b (x) c."""
    if c.order != a.order:
        raise UsageError("legs have different truncation orders")
    return TensorElement3(
        {
            (m1, m2, m3): s
            for (m1, m2), s12 in tensor(a, b).terms.items()
            for m3, s3 in c.terms.items()
            if not (s := s12 * s3).is_zero()
        },
        a.order,
    )


def cocycle_exponents(ctx: TwistContext) -> tuple[CommutingTriple, CommutingTriple]:
    """(Delta0 (x) id)f and (id (x) Delta0)f for the twist exponent f,
    in C[S, A]^(x)3; S and A are primitive."""
    f = ctx._twist_lift()
    if f is None:
        raise DomainError("the twist exponent is not in C[S, A] (x) C[S, A]")
    return _split_exponent(f)


def expand_triple(ctx: TwistContext, c: CommutingTriple) -> TensorElement3:
    """The image of c in the tensor cube: `TwistContext.expand` on three
    legs, key (s, a) to S^s p0^a on each leg."""
    out = TensorElement3.zero(c.order)
    for key, s in c.terms.items():
        legs = (ctx._s_p0_power(*e) for e in zip(key[::2], key[1::2]))
        out = out + tensor3(*legs).scale(s)
    return out


def substitute_lambda(value, lam):
    """A Scalar or a sparse element with lambda set to the rational `lam`."""
    if isinstance(value, Scalar):
        return _build(_substitute(value.terms, lam), value.order)
    return value.__class__(
        {k: substitute_lambda(s, lam) for k, s in value.terms.items()}, value.order
    )


def coproduct_by_commutators(ctx: TwistContext, h: AlgebraElement) -> TensorElement:
    """F (Delta0 h) F^-1 as the commutator series exp(ad f)(Delta0 h),
    canonical mod R afterwards: the oracle for `TwistContext.coproduct`."""
    return canonicalize(ctx._twisted(h), ctx.R)


def coproduct_opposite_by_commutators(
    ctx: TwistContext, h: AlgebraElement
) -> TensorElement:
    """tau0 of the commutator series, canonical mod Rtilde: the oracle for
    `TwistContext.coproduct_opposite`."""
    return canonicalize(tau0(ctx._twisted(h)), ctx.Rtilde)


def extend_per_monomial(ctx: TwistContext, h: AlgebraElement, image) -> TensorElement:
    """`TwistContext._extend` one monomial at a time, each word multiplied
    out from the unit in the order COORDINATES, then MOMENTA (p0 first):
    the oracle for its shared prefixes and for its letter order, which
    puts p0 last."""
    n = ctx.order
    out = TensorElement.zero(n)
    for mono, s in h.terms.items():
        acc = TensorElement.one(n)
        for names, exps in ((COORDINATES, mono.alpha), (MOMENTA, mono.beta)):
            for name, e in zip(names, exps):
                if e:
                    g = image(name)
                    for _ in range(e):
                        acc = acc * g
        out = out + acc.scale(s)
    return out


def exponents_eager(ctx: TwistContext) -> tuple[TensorElement, TensorElement]:
    """The twist exponent f = i(lam S (x) A - (1-lam) A (x) S) and the
    R-matrix exponent rho = i(A (x) S - S (x) A), as `TwistContext.__init__`
    built them before they became cached properties: the oracle for
    `TwistContext.twist_exponent` and `TwistContext.r_exponent`."""
    i = Scalar.i(ctx.order)
    S, A, lam = ctx.S, ctx.A, ctx.lam_poly
    f = tensor(S, A).scale(i * lam) - tensor(A, S).scale(i * (LP_ONE - lam))
    rho = (tensor(A, S) - tensor(S, A)).scale(i)
    return f, rho


# -- the twist family, one relation set at a time ----------------------------


def exchange_rule_by_hand(tag: str, lam, order: int) -> TensorElement:
    """x0 (x) 1 in the relation set `tag`, with lam written out: the oracle
    for `hopf.RelationSet.x0_rule`.

        R0:     x_0 (x) 1 = 1 (x) x_0
        R:      x_0 (x) 1 = 1 (x) x_0 - a0((1-lam) 1 (x) S + lam S (x) 1)
        Rtilde: x_0 (x) 1 = 1 (x) x_0 + a0(lam 1 (x) S + (1-lam) S (x) 1)
    """
    unit, S, a0 = AlgebraElement.one(order), dilatation(order), Scalar.a0(order)
    rule = tensor(unit, x(0, order))
    if tag == "R0":
        return rule
    if tag == "R":
        return (
            rule
            - tensor(unit, S).scale(a0 * (LP_ONE - lam))
            - tensor(S, unit).scale(a0 * lam)
        )
    return rule + tensor(unit, S).scale(a0 * lam) + tensor(S, unit).scale(
        a0 * (LP_ONE - lam)
    )


def spatial_shift_by_hand(tag: str, lam, order: int, d: int) -> TensorElement:
    """The factor with which a left leg of spatial degree d crosses in the
    relation set `tag`, with lam written out: the unit for R0, and the d-th
    power of the published spatial rules' Z^(lam-1) (x) Z^(-lam) for R and
    Z^lam (x) Z^(1-lam) for Rtilde.  The oracle for `hopf.RelationSet.shift`."""
    if tag == "R0":
        return TensorElement.one(order)
    u, v = (lam - LP_ONE, -lam) if tag == "R" else (lam, LP_ONE - lam)
    return tensor(z_power(u.scale(d), order), z_power(v.scale(d), order))


def xhat_by_hand(ctx: TwistContext, mu: int) -> AlgebraElement:
    """xhat_0 = x0 - (1-lam) a0 S and xhat_i = x_i Z^(-lam): the oracle for
    `TwistContext.xhat`."""
    n = ctx.order
    if mu == 0:
        return x(0, n) - ctx.S.scale(Scalar.a0(n) * (LP_ONE - ctx.lam_poly))
    return x(mu, n) * ctx.z(-ctx.lam_poly)


def star_product_by_flavor(
    ctx: TwistContext, f: Polynomial, g: Polynomial, which: str
) -> Polynomial:
    """m0(op |> (f (x) g)) with op = F^-1 acting on f_d (x) g_e as
    Z^((1-lam)e) (x) Z^(-lam d), and Ftilde^-1 = tau0(F^-1) as
    Z^(-lam e) (x) Z^((1-lam)d): the oracle for `TwistContext.star_product`."""
    lam, rest = ctx.lam_poly, LP_ONE - ctx.lam_poly
    out = Polynomial.zero(ctx.order)
    for d, f_d in _spatial_parts(f):
        for e, g_e in _spatial_parts(g):
            if which == "F":
                left, right = rest.scale(e), lam.scale(-d)
            else:
                left, right = lam.scale(-e), rest.scale(d)
            out = out + act(ctx.z(left), f_d) * act(ctx.z(right), g_e)
    return out


# -- the commutator's own pair walk ------------------------------------------


def commutator_by_pair_walk(a: SparseElement, b: SparseElement) -> SparseElement:
    """a * b - b * a in a walk of its own over the pairs of terms, by grade
    as in `SparseElement._product`, skipping a pair whose `key_commutator`
    list is empty before any coefficient product: the oracle for
    `algebra.commutator`."""
    if b.__class__ is not a.__class__:
        raise UsageError(
            f"commutator of a {type(a).__name__} and a {type(b).__name__}"
        )
    a._check(b)
    key_product = a.key_product
    order = a.order
    right = sorted(
        ((s.min_grade(), k, s) for k, s in b.terms.items()), key=itemgetter(0)
    )
    out: dict = {}
    for k1, s1 in a.terms.items():
        room = order - s1.min_grade()
        for g2, k2, s2 in right:
            if g2 > room:
                break
            terms = key_commutator(key_product, k1, k2)
            if not terms:
                continue
            s = s1 * s2
            for k, c in terms:
                contrib = s.scale(c)
                cur = out.get(k)
                out[k] = contrib if cur is None else cur + contrib
    return a.__class__(out, order)


# -- the boost/rotation closure as three blocks --------------------------------


def _delta(i: int, j: int) -> int:
    return 1 if i == j else 0


def lorentz_algebra_check_by_blocks(
    real: LorentzRealization, ctx: TwistContext
) -> list[str]:
    """The names of the failing [B,B], [B,M] and [M,M] commutators, each
    block written out with its own Kronecker deltas, the [M,M] block over
    all nine ordered pairs: the oracle for `poincare.lorentz_algebra_check`.
    Case (ii) deforms only [B_i, B_j] into -i M_ij cosh A."""
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


# -- the standalone lam-polynomial class ---------------------------------------


class StandaloneLambdaPoly:
    """Polynomial in lam as a class of its own over the `scalars` kernels,
    with its hash computed once: the oracle for `scalars.LambdaPoly`.

    ``terms`` holds the a0-free terms ``{(0, j): triple}`` of the same
    polynomial as a ``Scalar``, with no zero value.  It equals only a
    ``StandaloneLambdaPoly``, since equal values must hash equal and its
    hash covers its terms.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, coeffs=None):
        terms = {}
        for deg, val in (coeffs or {}).items():
            if deg < 0:
                raise UsageError("negative lam degree")
            t = _exact(val)
            if t[0] or t[1]:
                terms[(0, deg)] = t
        _fill_standalone(self, terms)

    def __setattr__(self, name, value):
        raise AttributeError("StandaloneLambdaPoly is immutable")

    @staticmethod
    def const(value) -> "StandaloneLambdaPoly":
        return StandaloneLambdaPoly({0: value})

    @staticmethod
    def gen() -> "StandaloneLambdaPoly":
        return _standalone({(0, 1): (1, 0, 1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, StandaloneLambdaPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        terms = _standalone_terms(other)
        if terms is None:
            return NotImplemented
        return _standalone(_add(self.terms, terms))

    __radd__ = __add__

    def __sub__(self, other):
        terms = _standalone_terms(other)
        if terms is None:
            return NotImplemented
        return _standalone(_add(self.terms, _neg(terms)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _standalone(_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, StandaloneLambdaPoly):
            return _standalone(_mul(self.terms, other.terms, 0))
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        return _standalone(_scale(self.terms, t))

    __rmul__ = __mul__

    def scale(self, factor) -> "StandaloneLambdaPoly":
        return _standalone(_scale(self.terms, _exact(factor)))

    def eval(self, value) -> GaussianRational:
        t = _substitute(self.terms, value).get((0, 0))
        return GR_ZERO if t is None else _gr(t)


def _fill_standalone(poly: StandaloneLambdaPoly, terms: Terms) -> None:
    object.__setattr__(poly, "terms", terms)
    object.__setattr__(poly, "_hash", hash(frozenset(terms.items())))


def _standalone(terms: Terms) -> StandaloneLambdaPoly:
    """Wrap already normalised a0-free terms."""
    poly = object.__new__(StandaloneLambdaPoly)
    _fill_standalone(poly, terms)
    return poly


def _standalone_terms(value) -> Terms | None:
    """Terms of a StandaloneLambdaPoly or of an exact number; None for
    anything else."""
    if isinstance(value, StandaloneLambdaPoly):
        return value.terms
    t = exact_triple(value)
    if t is None:
        return None
    return {(0, 0): t} if t[0] or t[1] else {}


# -- the rexpand column by canonicalization -------------------------------------


def term_column_by_canonicalize(
    term: AnsatzTerm, k: int, ctx: TwistContext
) -> TensorElement:
    """-i a0^k * term canonicalized mod R~ at truncation k, lifted to the
    context's truncation: the oracle for `rexpand._term_column`."""
    scaled = term.element.at_order(k).scale(Scalar.graded(I_NEG, k, k))
    rtilde = ctx.Rtilde._replace(order=k)
    return canonicalize(scaled, rtilde).at_order(ctx.order)


# -- the coefficient product as the general loop --------------------------------


def mul_by_double_loop(t1: Terms, t2: Terms, order: int) -> Terms:
    """Product truncated above grade `order`, every pair of terms through
    one double loop, sums collected over a common denominator and reduced
    once at the end: the oracle for `scalars._mul`."""
    if not t1 or not t2 or min(t1)[0] + min(t2)[0] > order:
        return {}
    acc: Terms = {}
    for (k1, j1), (a1, b1, d1) in t1.items():
        room = order - k1
        for (k2, j2), (a2, b2, d2) in t2.items():
            if k2 > room:
                continue
            key = (k1 + k2, j1 + j2)
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            cur = acc.get(key)
            if cur is None:
                acc[key] = (a, b, d)
            elif cur[2] == d:
                acc[key] = (cur[0] + a, cur[1] + b, d)
            else:
                dc = cur[2]
                acc[key] = (cur[0] * d + a * dc, cur[1] * d + b * dc, dc * d)
    return _normed(acc)


# -- the fit of graded elements -------------------------------------------------


def numbers_by_grade(element: SparseElement, grades) -> dict:
    """{(key, grade): the number multiplying a0^grade at key} over the
    nonzero ones: a graded element as one map for `linsolve.fit`."""
    return {
        (key, grade): c
        for key, s in element.terms.items()
        for grade in grades
        if (c := s.numeric_coefficient(grade))
    }


def coefficient_rows(target, columns, grades) -> dict:
    """The rows of the exact fit sum_j x_j * columns[j] = target of sparse
    elements, as {(key, grade): (row, value)}: for every basis key of the
    target or a column, in sorted key order, and every a0 grade in
    `grades`, the numbers multiplying a0^grade at that key in each column
    and in the target.  Rows whose entries and value are all zero are left
    out; a symbolic twist parameter raises (`Scalar.numeric_coefficient`).
    """
    by_key: dict = {}
    for j, col in enumerate(columns):
        for key, s in col.terms.items():
            by_key.setdefault(key, {})[j] = s
    target_terms = target.terms
    width = len(columns)
    out = {}
    for key in sorted(by_key.keys() | target_terms.keys()):
        entries = by_key.get(key, {})
        value = target_terms.get(key)
        for grade in grades:
            row = [GR_ZERO] * width
            for j, s in entries.items():
                row[j] = s.numeric_coefficient(grade)
            val = GR_ZERO if value is None else value.numeric_coefficient(grade)
            if val or any(row):
                out[(key, grade)] = (tuple(row), val)
    return out


def fit_by_grades(target, columns, grades) -> SolutionSpace:
    """The fit of `coefficient_rows` solved on its distinct rows, keyed on
    packed triples: the oracle for `linsolve.fit`, which takes the
    elements' numbers as {key: number} maps instead."""
    distinct = {}
    for row, val in coefficient_rows(target, columns, grades).values():
        distinct.setdefault((*(c.triple for c in row), val.triple), (row, val))
    if not distinct:
        return solve([(GR_ZERO,) * len(columns)], [GR_ZERO])
    equations = distinct.values()
    return solve([row for row, _ in equations], [val for _, val in equations])

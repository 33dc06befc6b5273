"""Deformed Lorentz sector: boost realizations, algebra closure, closed
coproducts, and the coordinate coproducts."""

import math
from fractions import Fraction

import pytest

from kappatwist import poincare
from kappatwist.algebra import AlgebraElement, commutator, p, x
from kappatwist.hopf import GENERATORS, TwistContext
from kappatwist.parser import elaborate, parse
from kappatwist.poincare import (
    CASES,
    CLOSED_FORMS,
    SPATIAL,
    boost_closed_form_string,
    boost_coproduct_closed_form,
    closed_form_coproduct,
    closed_form_string,
    kappa_commutator_check,
    lorentz_algebra_check,
    lorentz_coproduct,
    mhat,
    mij,
    momentum_sector_closed_forms,
    realization,
)
from kappatwist.scalars import LP_ONE, LambdaPoly, Scalar, UsageError
from kappatwist.tensor import canonicalize, tensor
import paper_reference
from paper_reference import (
    boost_coproduct_order1_match,
    case_iii_x_leg_mismatch,
    coproduct_homomorphism_check,
    lorentz_algebra_check_by_blocks,
    mhat_from_case_i,
    nonpoincare_leg_kinds,
    p_leftward,
    rotation_coproduct_closed_form,
    xhat_coproduct_compact,
)

N = 3


@pytest.fixture(scope="module")
def sym_ctx():
    return TwistContext(order=N)


@pytest.fixture(scope="module")
def half_ctx():
    return TwistContext(order=N, lam=Fraction(1, 2))


def _taylor(ctx, coeff):
    """sum over k <= N of coeff(k) * A^k, with coeff(k) a lam-polynomial."""
    out = AlgebraElement.zero(ctx.order)
    for k in range(ctx.order + 1):
        out = out + (ctx.A ** k).scale(coeff(k))
    return out


def _profile_sums(case, ctx):
    """F1..F4 of each case as Taylor sums in A, written out term by term."""
    lam = ctx.lam_poly

    def lam_pow(base, k):
        out = LP_ONE
        for _ in range(k):
            out = out * base
        return out

    def exp_lam(k):  # Z^lam = exp(lam A)
        return lam_pow(lam, k).scale(Fraction(1, math.factorial(k)))

    def none(k):
        return LambdaPoly()

    def unit(k):
        return LP_ONE if k == 0 else LambdaPoly()

    if case == "i":
        # F1 = (Z^(2-lam) - Z^(-lam)) / (2A)
        def f1(k):
            diff = lam_pow(LambdaPoly.const(2) - lam, k + 1) - lam_pow(-lam, k + 1)
            return diff.scale(Fraction(1, 2 * math.factorial(k + 1)))

        return (
            f1,
            exp_lam,
            lambda k: exp_lam(k) * (LP_ONE - lam),
            lambda k: exp_lam(k).scale(Fraction(-1, 2)),
        )
    if case == "ii":
        # F1 = sinh(A)/A
        def f1(k):
            return LambdaPoly.const(Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else 0)

        return (f1, unit, none, none)
    return (unit, unit, none, none)


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("lam", [None, Fraction(1, 2), Fraction(2, 3), Fraction(-3, 7)])
def test_profile_functions_match_taylor_sums(order, lam):
    """F1..F4 of every case against their Taylor series in A, through the
    top grade a0^N."""
    ctx = TwistContext(order=order, lam=lam)
    cases = ("i", "ii", "iii") if lam == Fraction(1, 2) else ("i", "iii")
    for case in cases:
        real = realization(case, ctx)
        got = (real.f1, real.f2, real.f3, real.f4)
        for name, f, coeff in zip(("F1", "F2", "F3", "F4"), got, _profile_sums(case, ctx)):
            assert f == _taylor(ctx, coeff), (case, name)


class TestRealizations:
    def test_case_ii_needs_half(self, sym_ctx):
        with pytest.raises(UsageError):
            realization("ii", sym_ctx)

    def test_unknown_case(self, sym_ctx):
        for case in ("iv", "case_i"):
            with pytest.raises(UsageError):
                realization(case, sym_ctx)

    def test_boost_a0_limit_undeformed(self, sym_ctx):
        for case in ("i", "iii"):
            real = realization(case, sym_ctx)
            for i in SPATIAL:
                b = mhat(i, real, sym_ctx)
                undeformed = x(i, N) * p(0, N) - x(0, N) * p(i, N)
                assert b.grade_part(0) == undeformed, (case, i)


class TestAlgebraClosure:
    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_closure(self, case, sym_ctx, half_ctx):
        ctx = half_ctx if case == "ii" else sym_ctx
        failed = lorentz_algebra_check(realization(case, ctx), ctx)
        assert not failed, failed

    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_momentum_sector(self, case, sym_ctx, half_ctx):
        ctx = half_ctx if case == "ii" else sym_ctx
        failed = momentum_sector_closed_forms(realization(case, ctx), ctx)
        assert not failed, failed

    def test_case_i_iii_a0_independent(self, sym_ctx):
        # [B_i, B_j] and rotation commutators carry no a0 dependence
        for case in ("i", "iii"):
            real = realization(case, sym_ctx)
            b = {i: mhat(i, real, sym_ctx) for i in SPATIAL}
            for i, j in ((1, 2), (1, 3), (2, 3)):
                c = commutator(b[i], b[j])
                assert c == c.grade_part(0), (case, i, j)

    def test_boost_relation_between_bases(self, half_ctx):
        real = realization("ii", half_ctx)
        for i in SPATIAL:
            assert mhat(i, real, half_ctx) == mhat_from_case_i(i, half_ctx)


# Three ways to break the boosts, each B_i -> f(B_i, i, order)
BROKEN_BOOSTS = {
    "B+x": lambda b, i, n: b + x(i, n),
    "2B": lambda b, i, n: b.scale(2),
    "B+p0": lambda b, i, n: b + p(0, n),
}
BB = ["[B1,B2]", "[B1,B3]", "[B2,B3]"]
BM_SHIFTED = ["[B1,M12]", "[B1,M13]", "[B2,M12]", "[B2,M23]", "[B3,M13]", "[B3,M23]"]
# what each broken boost fails in the closure check, per case
BROKEN_CLOSURE = {
    ("i", "B+x"): BB,
    ("ii", "B+x"): [],
    ("iii", "B+x"): [],
    **{(case, "2B"): BB for case in CASES},
    **{(case, "B+p0"): BB + BM_SHIFTED for case in CASES},
}


def _break_boosts(monkeypatch, mutation: str) -> None:
    """Replace `mhat` in the engine and in the oracle by a broken boost."""
    mhat_ = poincare.mhat
    change = BROKEN_BOOSTS[mutation]

    def broken(i, real, ctx):
        return change(mhat_(i, real, ctx), i, ctx.order)

    monkeypatch.setattr(poincare, "mhat", broken)
    monkeypatch.setattr(paper_reference, "mhat", broken)


class TestClosureAgainstBlocks:
    """`lorentz_algebra_check` (one structure-constant formula over the 15
    pairs of so(3,1) generators) against the three hand-written blocks."""

    @pytest.mark.parametrize("case", CASES)
    def test_both_pass_the_presets(self, case, sym_ctx, half_ctx):
        ctx = half_ctx if case == "ii" else sym_ctx
        real = realization(case, ctx)
        assert lorentz_algebra_check(real, ctx) == []
        assert lorentz_algebra_check_by_blocks(real, ctx) == []

    @pytest.mark.parametrize("mutation", BROKEN_BOOSTS)
    @pytest.mark.parametrize("case", CASES)
    def test_a_broken_boost_fails_the_same_brackets(
        self, case, mutation, sym_ctx, half_ctx, monkeypatch
    ):
        ctx = half_ctx if case == "ii" else sym_ctx
        real = realization(case, ctx)
        _break_boosts(monkeypatch, mutation)
        failed = lorentz_algebra_check(real, ctx)
        assert failed == lorentz_algebra_check_by_blocks(real, ctx)
        assert failed == BROKEN_CLOSURE[case, mutation]

    @pytest.mark.parametrize("case", CASES)
    def test_a_shifted_boost_fails_the_diagonal_momentum_brackets(
        self, case, sym_ctx, half_ctx, monkeypatch
    ):
        ctx = half_ctx if case == "ii" else sym_ctx
        _break_boosts(monkeypatch, "B+x")
        failed = momentum_sector_closed_forms(realization(case, ctx), ctx)
        assert failed == ["[B1,p1]", "[B2,p2]", "[B3,p3]"]


class TestBoostCoproducts:
    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_methods_agree_and_match_closed_form(self, case, sym_ctx, half_ctx):
        ctx = half_ctx if case == "ii" else sym_ctx
        real = realization(case, ctx)
        for i in (1, 2):
            d_twist = lorentz_coproduct(i, real, ctx)
            d_hom = ctx.coproduct_hom(mhat(i, real, ctx))
            closed = boost_coproduct_closed_form(i, real, ctx)
            assert d_twist == d_hom, (case, i)
            assert d_twist == closed, (case, i)

    def test_rotation_primitive(self, sym_ctx):
        for i, j in ((1, 2), (2, 3)):
            d = sym_ctx.coproduct(mij(i, j, sym_ctx))
            dh = sym_ctx.coproduct_hom(mij(i, j, sym_ctx))
            closed = rotation_coproduct_closed_form(i, j, sym_ctx)
            assert d == closed and dh == closed

    def test_homomorphism_on_brackets(self, sym_ctx, half_ctx):
        assert coproduct_homomorphism_check(realization("i", sym_ctx), sym_ctx)
        assert coproduct_homomorphism_check(realization("ii", half_ctx), half_ctx)

    def test_case_iii_closed_form_leaves_poincare(self, sym_ctx, half_ctx):
        assert nonpoincare_leg_kinds(1, realization("iii", sym_ctx)) == {
            "coordinate",
            "dilatation",
        }
        assert not nonpoincare_leg_kinds(1, realization("i", sym_ctx))
        assert not nonpoincare_leg_kinds(1, realization("ii", half_ctx))
        assert case_iii_x_leg_mismatch(1, sym_ctx)

    def test_order1_span_fit_case_ii(self, half_ctx):
        fit = boost_coproduct_order1_match(realization("ii", half_ctx), half_ctx, 1)
        assert fit.status == "unique"


class TestCoordinateCoproducts:
    def test_routes_agree(self, sym_ctx):
        for mu in range(4):
            direct = canonicalize(tensor(sym_ctx.xhat(mu), sym_ctx.one), sym_ctx.R)
            compact = xhat_coproduct_compact(mu, sym_ctx)
            hom = sym_ctx.coproduct_hom(sym_ctx.xhat(mu))
            assert direct == compact == hom, mu

    def test_leftward_momenta(self, sym_ctx):
        # a0 * p^L_0 == 1 - Z^-1
        pl0 = p_leftward(0, sym_ctx)
        lhs = pl0.scale(Scalar.a0(N))
        rhs = sym_ctx.one - sym_ctx.z(-1)
        assert lhs == rhs

    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)])
    def test_spatial_leftward_momenta(self, lam):
        ctx = TwistContext(order=N, lam=lam)
        for i in SPATIAL:
            assert p_leftward(i, ctx) == p(i, N) * ctx.z(ctx.lam_poly - 1)

    def test_kappa_commutators(self, sym_ctx):
        assert kappa_commutator_check(sym_ctx) == []

    def test_kappa_check_builds_each_xhat_once(self, sym_ctx, monkeypatch):
        built = []
        xhat = TwistContext.xhat

        def counted(ctx, mu):
            built.append(mu)
            return xhat(ctx, mu)

        monkeypatch.setattr(TwistContext, "xhat", counted)
        assert kappa_commutator_check(sym_ctx) == []
        assert sorted(built) == [0, 1, 2, 3]


class TestSpatialIndexing:
    def test_mij_antisymmetry(self, sym_ctx):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert mij(i, j, sym_ctx) == -mij(j, i, sym_ctx)

    def test_mhat_index_range(self, sym_ctx):
        real = realization("i", sym_ctx)
        with pytest.raises(UsageError):
            mhat(0, real, sym_ctx)

    @pytest.mark.parametrize("i, case", [(0, "i"), (4, "iii"), (1, "iv")])
    def test_closed_form_string_rejects_bad_input(self, i, case):
        with pytest.raises(UsageError):
            boost_closed_form_string(i, case)


# The published coproducts as the CLI's own table rendered them before the
# table moved into `poincare`, kept as literals: (--gen, case) -> string.
_RENDERED_CLOSED_FORMS = {
    ("x0", None): "x0 ox 1 + a0*(1-lam) ox S",
    ("x1", None): "Z^[lam-1] ox x1",
    ("x2", None): "Z^[lam-1] ox x2",
    ("x3", None): "Z^[lam-1] ox x3",
    ("p0", None): "p0 ox 1 + 1 ox p0",
    ("p1", None): "p1 ox Z^[-lam] + Z^[1-lam] ox p1",
    ("p2", None): "p2 ox Z^[-lam] + Z^[1-lam] ox p2",
    ("p3", None): "p3 ox Z^[-lam] + Z^[1-lam] ox p3",
    ("A", None): "A ox 1 + 1 ox A",
    ("S", None): "S ox 1 + 1 ox S",
    ("Z", None): "Z ox Z",
    ("M[1,2]", None): "M[1,2] ox 1 + 1 ox M[1,2]",
    ("M[2,3]", None): "M[2,3] ox 1 + 1 ox M[2,3]",
    ("Mhat[1,0]", "i"): (
        "Mhat[1,0] ox 1 + Z ox Mhat[1,0] - a0*Z^[lam]*p2 ox M[1,2]"
        " - a0*Z^[lam]*p3 ox M[1,3]"
    ),
    ("Mhat[2,0]", "i"): (
        "Mhat[2,0] ox 1 + Z ox Mhat[2,0] - a0*Z^[lam]*p1 ox M[2,1]"
        " - a0*Z^[lam]*p3 ox M[2,3]"
    ),
    ("Mhat[3,0]", "i"): (
        "Mhat[3,0] ox 1 + Z ox Mhat[3,0] - a0*Z^[lam]*p1 ox M[3,1]"
        " - a0*Z^[lam]*p2 ox M[3,2]"
    ),
    ("Mhat[1,0]", "ii"): (
        "Mhat[1,0] ox Z^[-1/2] + Z^[1/2] ox Mhat[1,0]"
        " + 1/2*a0*M[1,2]*Z^[1/2] ox p2 + 1/2*a0*M[1,3]*Z^[1/2] ox p3"
        " - 1/2*a0*p2 ox M[1,2]*Z^[-1/2] - 1/2*a0*p3 ox M[1,3]*Z^[-1/2]"
    ),
    ("Mhat[2,0]", "ii"): (
        "Mhat[2,0] ox Z^[-1/2] + Z^[1/2] ox Mhat[2,0]"
        " + 1/2*a0*M[2,1]*Z^[1/2] ox p1 + 1/2*a0*M[2,3]*Z^[1/2] ox p3"
        " - 1/2*a0*p1 ox M[2,1]*Z^[-1/2] - 1/2*a0*p3 ox M[2,3]*Z^[-1/2]"
    ),
    ("Mhat[3,0]", "ii"): (
        "Mhat[3,0] ox Z^[-1/2] + Z^[1/2] ox Mhat[3,0]"
        " + 1/2*a0*M[3,1]*Z^[1/2] ox p1 + 1/2*a0*M[3,2]*Z^[1/2] ox p2"
        " - 1/2*a0*p1 ox M[3,1]*Z^[-1/2] - 1/2*a0*p2 ox M[3,2]*Z^[-1/2]"
    ),
    ("Mhat[1,0]", "iii"): (
        "x1*p0 ox Z^[lam] + Z^[lam-1] ox x1*p0 - x0*p1 ox Z^[-lam]"
        " - Z^[1-lam] ox x0*p1 - a0*(1-lam)*p1 ox S*Z^[-lam]"
        " + a0*lam*S*Z^[1-lam] ox p1"
    ),
    ("Mhat[2,0]", "iii"): (
        "x2*p0 ox Z^[lam] + Z^[lam-1] ox x2*p0 - x0*p2 ox Z^[-lam]"
        " - Z^[1-lam] ox x0*p2 - a0*(1-lam)*p2 ox S*Z^[-lam]"
        " + a0*lam*S*Z^[1-lam] ox p2"
    ),
    ("Mhat[3,0]", "iii"): (
        "x3*p0 ox Z^[lam] + Z^[lam-1] ox x3*p0 - x0*p3 ox Z^[-lam]"
        " - Z^[1-lam] ox x0*p3 - a0*(1-lam)*p3 ox S*Z^[-lam]"
        " + a0*lam*S*Z^[1-lam] ox p3"
    ),
}

_ROTATIONS = ("M[1,2]", "M[1,3]", "M[2,3]")


class TestClosedFormTable:
    def test_table_names_every_generator(self):
        assert set(CLOSED_FORMS) == set(GENERATORS)
        assert {gen for gen, _ in _RENDERED_CLOSED_FORMS} >= set(GENERATORS)

    @pytest.mark.parametrize("gen, case", sorted(_RENDERED_CLOSED_FORMS, key=str))
    def test_strings_match_the_rendered_table(self, gen, case):
        expected = _RENDERED_CLOSED_FORMS[(gen, case)]
        assert closed_form_string(parse(gen), case) == expected

    @pytest.mark.parametrize("gen", ["x1*p1", "2", "x1 ox p1", "a0", "exp(A)"])
    def test_non_generators_rejected(self, gen):
        with pytest.raises(UsageError, match="single generator"):
            closed_form_string(parse(gen), None)

    def test_boost_needs_case(self):
        with pytest.raises(UsageError, match="need --case"):
            closed_form_string(parse("Mhat[1,0]"), None)

    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)])
    @pytest.mark.parametrize("gen", GENERATORS + _ROTATIONS)
    def test_coproduct_matches_both_routes(self, gen, lam):
        ctx = TwistContext(order=N, lam=lam)
        node = parse(gen)
        closed = closed_form_coproduct(closed_form_string(node, None), ctx)
        h = elaborate(node, ctx)
        assert closed == ctx.coproduct(h)
        assert closed == ctx.coproduct_hom(h)

    def test_rotation_closed_form_is_primitive(self, sym_ctx):
        one = sym_ctx.one
        for i, j in ((1, 2), (1, 3), (2, 3), (3, 1)):
            m = mij(i, j, sym_ctx)
            oracle = canonicalize(tensor(m, one) + tensor(one, m), sym_ctx.R)
            assert rotation_coproduct_closed_form(i, j, sym_ctx) == oracle

"""Twist context: exchange relations, deformed coproducts, twist axioms,
R-matrix and star products."""

import gc
import itertools
import weakref
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist.algebra import (
    AlgebraElement,
    Monomial,
    Polynomial,
    act,
    commutator,
    exp_coeffs,
    p,
    power_series,
    x,
)
from kappatwist import hopf
from kappatwist.hopf import (
    COORDINATES,
    GENERATORS,
    MOMENTA,
    CommutingPair,
    CommutingTriple,
    TwistContext,
)
from kappatwist.parser import elaborate, evaluate, parse
from kappatwist.poincare import mhat, mij, realization
from kappatwist.scalars import (
    DomainError,
    GaussianRational,
    LambdaPoly,
    Scalar,
    UsageError,
)
from kappatwist.tensor import (
    TensorElement,
    canonicalize,
    equal_mod,
    t3_exp,
    tau0,
    tensor,
)
from paper_reference import (
    cocycle_exponents,
    coproduct_by_commutators,
    coproduct_opposite_by_commutators,
    embed,
    expand_triple,
    exchange_rule_by_hand,
    exponents_eager,
    extend_per_monomial,
    spatial_shift_by_hand,
    star_product_by_flavor,
    substitute_lambda,
    tensor3,
    xhat_by_hand,
)

N = 3
LAMBDAS = [None, Fraction(1, 2), Fraction(1, 3)]
LAMBDA_IDS = ["sym", "1/2", "1/3"]


@pytest.fixture(scope="module")
def ctx():
    return TwistContext(order=N)


def lam_of(ctx):
    return Scalar.from_value(ctx.lam_poly, ctx.order)


# x_mu (x) 1 = rule, as published; {i} is a spatial index
_PUBLISHED_RULES = {
    "R0": ("1 ox x0", "1 ox x{i}"),
    "R": ("1 ox x0 - a0*(1-lam) ox S - a0*lam*S ox 1", "Z^[lam-1] ox x{i}*Z^[-lam]"),
    "Rtilde": ("1 ox x0 + a0*lam ox S + a0*(1-lam)*S ox 1", "Z^[lam] ox x{i}*Z^[1-lam]"),
}


class TestExchangeRelations:
    @pytest.mark.parametrize("lam", [None, Fraction(2, 3)], ids=["sym", "2/3"])
    @pytest.mark.parametrize("order", range(1, 7))
    def test_rules_match_published_relations(self, order, lam):
        ctx = TwistContext(order=order, lam=lam)
        for tag, (time_rule, space_rule) in _PUBLISHED_RULES.items():
            rel = getattr(ctx, tag)
            assert rel.x0_rule() == evaluate(time_rule, ctx), tag
            for i in (1, 2, 3):
                want = evaluate(space_rule.format(i=i), ctx)
                got = rel.shift(1) * tensor(ctx.one, x(i, order))
                assert got == want, (tag, i)

    def test_context_freed_without_cycle_collection(self):
        # the relation sets must not refer back to their context, or every
        # context would live on until a garbage-collection pass
        gc.disable()
        try:
            ctx = TwistContext(order=2)
            ctx.R.x0_rule()
            ctx.R.shift(1)
            ref = weakref.ref(ctx)
            del ctx
            assert ref() is None
        finally:
            gc.enable()


class TestGenerators:
    def test_table_order(self):
        assert COORDINATES == ("x0", "x1", "x2", "x3")
        assert MOMENTA == ("p0", "p1", "p2", "p3")
        assert GENERATORS == (*COORDINATES, *MOMENTA, "A", "S", "Z")

    @pytest.mark.parametrize("name", GENERATORS)
    def test_every_name_parses_to_a_generator(self, name):
        assert parse(name) == ("gen", name)

    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)])
    def test_elements(self, lam):
        ctx = TwistContext(order=N, lam=lam)
        for mu in range(4):
            assert ctx.generator(COORDINATES[mu]) == x(mu, N)
            assert ctx.generator(MOMENTA[mu]) == p(mu, N)
        assert ctx.generator("A") == p(0, N).scale(Scalar.a0(N))
        assert ctx.generator("S") == sum(
            (x(k, N) * p(k, N) for k in (1, 2, 3)), AlgebraElement.zero(N)
        )
        assert ctx.generator("Z") == ctx.z(1)

    @pytest.mark.parametrize("name", ["foo", "x4", "p", "M", "Mhat", "I", ""])
    def test_unknown_name_rejected(self, ctx, name):
        with pytest.raises(UsageError, match="unknown generator"):
            ctx.generator(name)


class TestElaboration:
    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)])
    def test_exp_expression_is_z(self, lam):
        ctx = TwistContext(order=N, lam=lam)
        assert evaluate("exp(a0*p0)", ctx) == ctx.z(1)

    def test_sum_rule(self, ctx):
        x1, p1 = ("gen", "x1"), ("gen", "p1")
        term = ("tensor", x1, p1)
        assert elaborate(("sum", [(1, x1), (-1, p1)]), ctx) == x(1, N) - p(1, N)
        assert elaborate(("tsum", [(1, term), (-1, term)]), ctx) == TensorElement.zero(N)
        # the parser never nests a tensor in a plain sum; a built tree may
        with pytest.raises(UsageError, match="cannot be nested"):
            elaborate(("sum", [(1, x1), (1, term)]), ctx)


class TestLazyExponents:
    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)], ids=["sym", "1/3"])
    def test_built_on_first_read(self, lam):
        ctx = TwistContext(order=N, lam=lam)
        h = mhat(1, realization("i", ctx), ctx)
        ctx.coproduct(h)
        ctx.coproduct_hom(h)
        assert not {"twist_exponent", "r_exponent"} & vars(ctx).keys()
        f, rho = exponents_eager(ctx)
        assert ctx.twist_exponent == f
        assert "r_exponent" not in vars(ctx)
        assert ctx.r_exponent == rho
        assert ctx.twist_exponent is ctx.twist_exponent


class TestBoostPerContext:
    def test_built_once_per_context(self, monkeypatch):
        from kappatwist import poincare

        calls = []

        def counting_mhat(*args):
            calls.append(args[0])
            return mhat(*args)

        monkeypatch.setattr(poincare, "mhat", counting_mhat)
        node = parse("Mhat[1,0] ox 1 + Z ox Mhat[1,0]")
        first = TwistContext(order=N)
        value = elaborate(node, first, "i")
        assert calls == [1]
        assert elaborate(parse("Mhat[1,0]"), first, "i") == mhat(
            1, realization("i", first), first
        )
        assert calls == [1]
        elaborate(parse("Mhat[1,0]"), first, "iii")
        assert calls == [1, 1]
        second = TwistContext(order=N)
        assert elaborate(node, second, "i") == value
        assert calls == [1, 1, 1]


class TestGeneratorCoproducts:
    def test_spatial_coordinates(self, ctx):
        # Delta x_i = x_i (x) Z^lam = Z^(lam-1) (x) x_i
        lam = LambdaPoly.gen()
        for i in (1, 2, 3):
            d = ctx.generator_coproduct(f"x{i}")
            form_a = tensor(x(i, N), ctx.z(lam))
            form_b = tensor(ctx.z(lam - LambdaPoly.const(1)), x(i, N))
            assert equal_mod(d, form_a, ctx.R)
            assert equal_mod(d, form_b, ctx.R)
            assert equal_mod(form_a, form_b, ctx.R)

    def test_time_coordinate(self, ctx):
        d = ctx.generator_coproduct("x0")
        one = ctx.one
        a0 = Scalar.a0(N)
        lam = lam_of(ctx)
        form_a = tensor(x(0, N), one) + tensor(one, ctx.S).scale(
            a0 * (Scalar.one(N) - lam)
        )
        form_b = tensor(one, x(0, N)) - tensor(ctx.S, one).scale(a0 * lam)
        assert equal_mod(d, form_a, ctx.R)
        assert equal_mod(d, form_b, ctx.R)
        assert equal_mod(form_a, form_b, ctx.R)

    def test_momenta(self, ctx):
        lam = LambdaPoly.gen()
        for i in (1, 2, 3):
            d = ctx.generator_coproduct(f"p{i}")
            want = tensor(p(i, N), ctx.z(-lam)) + tensor(
                ctx.z(LambdaPoly.const(1) - lam), p(i, N)
            )
            assert d == canonicalize(want, ctx.R)
        d0 = ctx.generator_coproduct("p0")
        want0 = tensor(p(0, N), ctx.one) + tensor(ctx.one, p(0, N))
        assert d0 == canonicalize(want0, ctx.R)

    def test_a0_limit_is_undeformed(self, ctx):
        for name in ("x0", "x1", "p0", "p1", "p2"):
            d = ctx.generator_coproduct(name)
            d0 = ctx.coproduct0(ctx.generator(name))
            assert d.grade_part(0) == d0

    def test_homomorphism_random_pairs(self, ctx):
        import random

        rng = random.Random(7)
        names = ["x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3"]
        for _ in range(25):
            a = ctx.generator(rng.choice(names))
            b = ctx.generator(rng.choice(names))
            lhs = ctx.coproduct(a * b)
            rhs = ctx.coproduct(a) * ctx.coproduct(b)
            assert equal_mod(lhs, rhs, ctx.R)

    def test_coproduct_respects_commutators(self, ctx):
        # Delta([p_mu, x_nu]) must be the constant -i eta_{mu nu} 1x1
        for mu, nu in ((0, 0), (1, 1), (1, 2)):
            c = commutator(p(mu, N), x(nu, N))
            d = ctx.coproduct(c)
            want = canonicalize(
                tensor(c, ctx.one), ctx.R
            )  # constants are tensor-primitive
            assert d == want


class TestTwistAxioms:
    def test_cocycle(self, ctx):
        assert ctx.verify_cocycle()

    @pytest.mark.parametrize("lam", [None, Fraction(1, 2)], ids=["sym", "1/2"])
    @pytest.mark.parametrize("order", range(1, 5))
    def test_cocycle_exponents_match_hand_written(self, order, lam):
        # the former formula: Delta0 applied to the primitive S and A legs
        ctx = TwistContext(order=order, lam=lam)
        i, lam_s, one = Scalar.i(order), lam_of(ctx), ctx.one

        def exponent3(split_first):
            def pair(left, right):
                if split_first:
                    return tensor3(left, one, right) + tensor3(one, left, right)
                return tensor3(left, right, one) + tensor3(left, one, right)

            return pair(ctx.S, ctx.A) * (i * lam_s) - pair(ctx.A, ctx.S) * (
                i * (Scalar.one(order) - lam_s)
            )

        got = tuple(expand_triple(ctx, c) for c in cocycle_exponents(ctx))
        assert got == (exponent3(True), exponent3(False))

    def test_cocycle_mutation_detected(self):
        # F stays cached from the true exponent while the exponent that
        # verify_cocycle splits has its A (x) S sign flipped
        ctx = TwistContext(order=N)
        ctx.twist()
        i = Scalar.i(N)
        ctx.twist_exponent = tensor(ctx.S, ctx.A).scale(i * lam_of(ctx)) + tensor(
            ctx.A, ctx.S
        ).scale(i * (Scalar.one(N) - lam_of(ctx)))
        assert not ctx.verify_cocycle()

    def test_cached_twist_mutation_detected(self):
        # the exponent is right, but the cached F carries one extra term at
        # the top a0 grade
        ctx = TwistContext(order=N)
        extra = tensor(ctx.S, ctx.S).scale(Scalar.a0(N, N))
        ctx._cache["F"] = ctx.twist() + extra
        assert not ctx.verify_cocycle()

    @pytest.mark.parametrize("mutated", [False, True], ids=["true", "mutated"])
    @pytest.mark.parametrize("lam", LAMBDAS, ids=LAMBDA_IDS)
    @pytest.mark.parametrize("order", range(1, 5))
    def test_cocycle_agrees_with_three_leg_route(self, order, lam, mutated):
        # the reference route multiplies normal-ordered three-leg tensors
        ctx = TwistContext(order=order, lam=lam)
        if mutated:  # F stays cached from the true exponent
            ctx.twist()
            ctx.twist_exponent = ctx.twist_exponent + tensor(ctx.A, ctx.S).scale(
                Scalar.i(order)
            )
        f, F = ctx.twist_exponent, ctx.twist()
        first, second = embed(f, 1) + embed(f, 0), embed(f, 2) + embed(f, 1)
        e_first, e_second = t3_exp(first), t3_exp(second)
        want = embed(F, 2) * e_first == embed(F, 0) * e_second
        assert ctx.verify_cocycle() is want is (not mutated)
        coeffs = exp_coeffs(order)
        c_first, c_second = cocycle_exponents(ctx)
        assert expand_triple(ctx, c_first) == first
        assert expand_triple(ctx, c_second) == second
        assert expand_triple(ctx, power_series(c_first, coeffs)) == e_first
        assert expand_triple(ctx, power_series(c_second, coeffs)) == e_second

    @pytest.mark.parametrize("lam", [None, Fraction(1, 2)], ids=["sym", "1/2"])
    @pytest.mark.parametrize("order", [5, 6])
    def test_cocycle_at_high_order(self, order, lam):
        assert TwistContext(order=order, lam=lam).verify_cocycle()

    def test_cocycle_exponents_reject_a_non_commuting_exponent(self):
        ctx = TwistContext(order=N)
        ctx.twist_exponent = ctx.twist_exponent + tensor(x(1, N), ctx.A)
        assert not ctx.verify_cocycle()
        with pytest.raises(DomainError):
            cocycle_exponents(ctx)

    def test_counit(self, ctx):
        assert ctx.verify_counit()

    def test_twist_invertible(self, ctx):
        assert ctx.twist() * ctx.twist_inverse() == TensorElement.one(N)


@st.composite
def _commuting_pair_of_elements(draw):
    """A context at order 1..4, symbolic or rational lam, and two elements
    of C[S, A]^(x)2 or C[S, A]^(x)3 with coefficients spread over a0
    grades and, for symbolic lam, powers of lam."""
    order = draw(st.integers(1, 4))
    lam = draw(st.sampled_from(LAMBDAS))
    kind = draw(st.sampled_from([CommutingPair, CommutingTriple]))
    legs = len(kind.UNIT_KEY) // 2
    term = st.tuples(
        st.tuples(*[st.integers(0, 1), st.integers(0, 2)] * legs),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        st.integers(0, order),
        st.integers(0, 2 if lam is None else 0),
    )

    def build(terms):
        out = kind.zero(order)
        for key, c, k, j in terms:
            coeff = Scalar.graded(LambdaPoly({j: c}), k, order)
            out = out + kind({key: coeff}, order)
        return out

    elements = st.builds(build, st.lists(term, max_size=3))
    return TwistContext(order=order, lam=lam), draw(elements), draw(elements)


class TestCommutingExpansion:
    @given(_commuting_pair_of_elements())
    @settings(max_examples=100, deadline=None)
    def test_expand_is_an_injective_algebra_map(self, setting):
        ctx, a, b = setting
        pair = isinstance(a, CommutingPair)
        expand = ctx.expand if pair else partial(expand_triple, ctx)
        assert expand(a * b) == expand(a) * expand(b)
        for c in (a, b, a * b):
            assert expand(c).is_zero() == c.is_zero()


class TestRealization:
    def test_closed_forms(self, ctx):
        lam = LambdaPoly.gen()
        for i in (1, 2, 3):
            assert ctx.xhat(i) == x(i, N) * ctx.z(-lam)
        want0 = x(0, N) - ctx.S.scale(
            Scalar.a0(N) * (Scalar.one(N) - lam_of(ctx))
        )
        assert ctx.xhat(0) == want0

    def test_operator_equals_closed_form(self, ctx):
        for mu in range(4):
            xh = ctx.xhat(mu)
            x_mu = Polynomial.x_monomial(tuple(int(nu == mu) for nu in range(4)), N)
            for exps in itertools.product(range(3), repeat=2):
                f = Polynomial.x_monomial((exps[0], exps[1], 0, 0), N)
                assert ctx.star_product(x_mu, f) == act(xh, f)

    def test_kappa_minkowski(self, ctx):
        i = Scalar.i(N)
        a0 = Scalar.a0(N)
        xh = [ctx.xhat(mu) for mu in range(4)]
        for mu in range(4):
            for nu in range(4):
                lhs = commutator(xh[mu], xh[nu])
                rhs = AlgebraElement.zero(N)
                if mu == 0:
                    rhs = rhs + xh[nu].scale(i * a0)
                if nu == 0:
                    rhs = rhs - xh[mu].scale(i * a0)
                assert lhs == rhs, (mu, nu)


class TestRMatrix:
    def test_flip_gives_inverse(self, ctx):
        assert tau0(ctx.rmatrix()) == ctx.rmatrix_inverse()

    def test_conjugation_equals_opposite(self, ctx):
        for name in ("x0", "x1", "p0", "p1"):
            h = ctx.generator(name)
            assert ctx.rmatrix_conjugate(h) == ctx.coproduct_opposite(h)

    def test_tau_squared(self, ctx):
        # tau = tau0 R; tau^2 = tau0(R) R = R^-1 R = 1x1
        prod = tau0(ctx.rmatrix()) * ctx.rmatrix()
        assert prod == TensorElement.one(N)


class TestStarProducts:
    def test_flip_identity_all_low_degree(self, ctx):
        monos = [
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (1, 1, 0, 0),
            (0, 2, 0, 0),
        ]
        for ea in monos:
            for eb in monos:
                f = Polynomial.x_monomial(ea, N)
                g = Polynomial.x_monomial(eb, N)
                assert ctx.star_product(f, g, "F") == ctx.star_product(
                    g, f, "Ftilde"
                )

    def test_unknown_flavor(self, ctx):
        f = Polynomial.x_monomial((1, 0, 0, 0), N)
        with pytest.raises(UsageError):
            ctx.star_product(f, f, "bogus")


@lru_cache(maxsize=None)
def _context(order, lam):
    return TwistContext(order=order, lam=lam)


def _per_term_action(op, f, g):
    """m0(op |> (f (x) g)) one term of op at a time: the oracle for the
    leg-table action."""
    n = f.order
    out = Polynomial.zero(n)
    for (l, r), s in op.terms.items():
        left = act(AlgebraElement.monomial(l, n), f)
        if left.is_zero():
            continue
        right = act(AlgebraElement.monomial(r, n), g)
        if right.is_zero():
            continue
        out = out + (left * right) * s
    return out


_LOW_DEGREE = [e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3]


@st.composite
def _polynomials(draw, order):
    """Polynomials of x-degree 0..3 (the zero polynomial and constants
    included) with Gaussian-rational coefficients at a0-grade 0 or 1."""
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    term = st.tuples(st.sampled_from(_LOW_DEGREE), small, small, st.integers(0, 1))
    terms = {
        e: Scalar.graded(GaussianRational(re, im), k, order)
        for e, re, im, k in draw(st.lists(term, max_size=4))
    }
    return Polynomial(terms, order)


_SETTINGS = [
    (n, lam) for n in (1, 3, 4, 5) for lam in (None, Fraction(1, 2), Fraction(1, 3))
]


@st.composite
def _setting_and_pair(draw):
    order, lam = draw(st.sampled_from(_SETTINGS))
    return _context(order, lam), draw(_polynomials(order)), draw(_polynomials(order))


class TestLegTable:
    @given(_setting_and_pair())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_term_action(self, drawn):
        ctx, f, g = drawn
        ops = {"F": ctx.twist_inverse(), "Ftilde": ctx.twist_opposite_inverse()}
        for which, op in ops.items():
            got, want = ctx.star_product(f, g, which), _per_term_action(op, f, g)
            assert got == want, which
            assert str(got) == str(want), which
        for mu in range(4):
            x_mu = Polynomial.x_monomial(tuple(int(nu == mu) for nu in range(4)), ctx.order)
            got = ctx.star_product(x_mu, f)
            want = _per_term_action(ops["F"], x_mu, f)
            assert got == want, mu
            assert str(got) == str(want), mu

    def test_two_acts_per_pair_of_spatial_degrees(self, monkeypatch):
        n = 4

        def poly(terms):
            return Polynomial({e: Scalar.from_value(c, n) for e, c in terms.items()}, n)

        # spatial degrees 1 and 2 in f, 0 and 2 in g
        f = poly({(0, 1, 0, 0): 2, (0, 1, 1, 0): Fraction(-1, 3)})
        g = poly({(1, 0, 0, 0): 3, (0, 0, 2, 0): Fraction(1, 2)})
        ctx = _context(n, None)
        want = {which: ctx.star_product(f, g, which) for which in ("F", "Ftilde")}
        calls = []
        real_act = hopf.act

        def counting_act(h, arg):
            calls.append((str(h), str(arg)))
            return real_act(h, arg)

        monkeypatch.setattr(hopf, "act", counting_act)
        for which in ("F", "Ftilde"):
            calls.clear()
            ctx.star_product(f, g, which)
            assert 0 < len(calls) <= 2 * 2 * 2, which
            # no operator acts twice on the same argument
            assert len(set(calls)) == len(calls), which
        monkeypatch.undo()

        # the closed form never expands the twist
        fresh = TwistContext(order=n)

        def expanded():
            raise AssertionError("the twist was expanded")

        monkeypatch.setattr(fresh, "twist_inverse", expanded)
        monkeypatch.setattr(fresh, "twist_opposite_inverse", expanded)
        for which in ("F", "Ftilde"):
            assert fresh.star_product(f, g, which) == want[which], which
        x_1 = Polynomial.x_monomial((0, 1, 0, 0), n)
        assert fresh.star_product(x_1, f) == ctx.star_product(x_1, f)

    @pytest.mark.parametrize("which", ["F", "Ftilde"])
    def test_argument_order_checked(self, which):
        ctx = _context(3, None)
        good = Polynomial.zero(3)
        bad = Polynomial.x_monomial((0, 1, 0, 0), 4)
        with pytest.raises(UsageError):
            ctx.star_product(good, bad, which)
        with pytest.raises(UsageError):
            ctx.star_product(bad, good, which)


class TestRationalLambda:
    def test_specialized_context_consistent(self):
        sym = TwistContext(order=N)
        rat = TwistContext(order=N, lam=Fraction(1, 3))
        for name in ("x1", "p1", "x0"):
            d_sym = sym.generator_coproduct(name)
            d_rat = rat.generator_coproduct(name)
            assert substitute_lambda(d_sym, Fraction(1, 3)) == d_rat

    def test_order_bounds(self):
        with pytest.raises(UsageError):
            TwistContext(order=0)
        with pytest.raises(UsageError):
            TwistContext(order=7)

    @pytest.mark.parametrize("order", [2.5, 3.0, Fraction(3), True], ids=repr)
    def test_order_must_be_an_integer(self, order):
        # 2.5 and 3.0 pass the range check, and a float order used to fail
        # with a TypeError in the first coproduct
        with pytest.raises(UsageError, match="integer"):
            TwistContext(order=order)


_KERNEL_LAMBDAS = [None, Fraction(1, 3), Fraction(1, 2), Fraction(-5, 3)]
_KERNEL_LAMBDA_IDS = ["sym", "1/3", "1/2", "-5/3"]


@st.composite
def _element(draw):
    """A context at order 1..5 and lam in _KERNEL_LAMBDAS, and an element
    whose monomials carry x0^0..x0^3, with coefficients spread over a0
    grades and, for symbolic lam, powers of lam."""
    order = draw(st.integers(1, 5))
    lam = draw(st.sampled_from(_KERNEL_LAMBDAS))
    mono = st.builds(
        Monomial,
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1), st.just(0)),
        st.tuples(st.integers(0, 2), st.integers(0, 1), st.just(0), st.integers(0, 1)),
    )
    term = st.tuples(
        mono,
        st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
        st.integers(0, 1),
        st.integers(0, 1 if lam is None else 0),
    )
    terms = {
        m: Scalar.graded(LambdaPoly({j: c}), k, order)
        for m, c, k, j in draw(st.lists(term, min_size=1, max_size=3))
    }
    return _context(order, lam), AlgebraElement(terms, order)


def _x0_degree(h):
    return max((m.alpha[0] for m in h.terms), default=0)


def _named_elements(ctx):
    """Generators, rotations, and the boosts of each case the context
    allows; x0^2 x1 p0 for a second x0-derivative."""
    out = [ctx.generator(name) for name in GENERATORS]
    out += [mij(1, 2, ctx), mij(3, 1, ctx)]
    cases = ("i", "ii", "iii") if ctx.lam == Fraction(1, 2) else ("i", "iii")
    out += [mhat(i, realization(case, ctx), ctx) for case in cases for i in (1, 3)]
    out.append(x(0, ctx.order) ** 2 * x(1, ctx.order) * p(0, ctx.order))
    return out


class TestClosedFormCoproduct:
    """`coproduct` and `coproduct_opposite` in closed form against the
    commutator series canonicalized afterwards."""

    @given(_element())
    @settings(max_examples=60, deadline=None)
    def test_random_elements_match_commutator_series(self, drawn):
        ctx, h = drawn
        assert ctx.coproduct(h) == coproduct_by_commutators(ctx, h)
        assert ctx.coproduct_opposite(h) == coproduct_opposite_by_commutators(ctx, h)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lam", _KERNEL_LAMBDAS, ids=_KERNEL_LAMBDA_IDS)
    def test_generators_rotations_and_boosts(self, order, lam):
        ctx = _context(order, lam)
        for h in _named_elements(ctx):
            assert ctx.coproduct(h) == coproduct_by_commutators(ctx, h), h
            got = ctx.coproduct_opposite(h)
            assert got == coproduct_opposite_by_commutators(ctx, h), h

    @pytest.mark.parametrize("lam", [None, Fraction(1, 2)], ids=["sym", "1/2"])
    @pytest.mark.parametrize("opposite", [False, True], ids=["R", "Rtilde"])
    def test_one_product_per_x0_derivative(self, monkeypatch, opposite, lam):
        ctx = _context(4, lam)
        coproduct = ctx.coproduct_opposite if opposite else ctx.coproduct
        elements = _named_elements(ctx)
        elements.append(x(0, 4) ** 3 * p(2, 4) + x(0, 4) * x(3, 4))
        for h in elements:  # fills the process-wide memos
            coproduct(h)
        calls = []
        real_mul = TensorElement.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return real_mul(a, b)

        def no_series(*args):
            raise AssertionError("the commutator series was taken")

        monkeypatch.setattr(TensorElement, "__mul__", counting_mul)
        monkeypatch.setattr(hopf, "t_adjoint", no_series)
        for h in elements:
            calls.clear()
            coproduct(h)
            assert len(calls) <= _x0_degree(h), h

    @given(_element())
    @settings(max_examples=40, deadline=None)
    def test_extend_matches_per_monomial_products(self, drawn):
        ctx, h = drawn
        for image in (ctx._primitive, ctx.generator_coproduct):
            assert ctx._extend(h, image) == extend_per_monomial(ctx, h, image)

    def test_extend_forms_each_prefix_once(self, monkeypatch):
        # x1 + x1 p0 + x1 p0^2 + x1 p0^3 - 2 x1 p0^2 p1 + 4
        n = 3
        ctx = _context(n, None)
        x1, p0, p1 = x(1, n), p(0, n), p(1, n)
        h = x1 + x1 * p0 + x1 * p0**2 + x1 * p0**3 - (x1 * p0**2 * p1).scale(2)
        h = h + AlgebraElement.one(n).scale(4)
        want = extend_per_monomial(ctx, h, ctx._primitive)
        calls = []
        real_mul = TensorElement.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return real_mul(a, b)

        monkeypatch.setattr(TensorElement, "__mul__", counting_mul)
        assert ctx._extend(h, ctx._primitive) == want
        # one product per multi-letter prefix of the words, p0 last: x1*p0,
        # (x1 p0)*p0, (x1 p0^2)*p0, x1*p1, (x1 p1)*p0 and (x1 p1 p0)*p0
        words = [hopf._word(mono) for mono in h.terms]
        prefixes = {w[:k] for w in words for k in range(2, len(w) + 1)}
        assert len(calls) == len(prefixes) == 6

    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)], ids=["sym", "1/3"])
    def test_hom_route_boost_takes_p0_last(self, monkeypatch, lam):
        # the case-(i) boost at N = 3: 45 products with p0 first, 28 with p0
        # last, where x2 p1 p1 is formed once and extended by the two-term
        # Delta p0
        ctx = TwistContext(order=3, lam=lam)
        h = mhat(2, realization("i", ctx), ctx)
        for name in COORDINATES + MOMENTA:
            ctx.generator_coproduct(name)
        calls = []
        real_mul = TensorElement.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return real_mul(a, b)

        monkeypatch.setattr(TensorElement, "__mul__", counting_mul)
        got = ctx.coproduct_hom(h)
        monkeypatch.undo()
        assert len(calls) <= 28
        assert got == canonicalize(
            extend_per_monomial(ctx, h, ctx.generator_coproduct), ctx.R
        )
        assert got == ctx.coproduct(h)


_FAMILY_SETTINGS = [(n, lam) for n in range(1, 7) for lam in _KERNEL_LAMBDAS]
_FAMILY_IDS = [f"N{n}-{lam}" for n in range(1, 7) for lam in _KERNEL_LAMBDA_IDS]


def _same(got, want):
    return got == want and str(got) == str(want)


class TestTwistPair:
    """Every member of the twist family read off its relation set's
    (sigma, tau) pair (`hopf.RelationSet`, R0 = (0, 0)) against the same
    member written out per relation set with lam and 1-lam by hand."""

    @pytest.mark.parametrize("order, lam", _FAMILY_SETTINGS, ids=_FAMILY_IDS)
    def test_relations_exponent_and_coordinates(self, order, lam):
        ctx = _context(order, lam)
        lam_poly = ctx.lam_poly
        for tag in ("R0", "R", "Rtilde"):
            rel = getattr(ctx, tag)
            assert _same(rel.x0_rule(), exchange_rule_by_hand(tag, lam_poly, order)), tag
            for d in range(order + 1):
                want = spatial_shift_by_hand(tag, lam_poly, order, d)
                assert _same(rel.shift(d), want), (tag, d)
        assert _same(ctx.twist_exponent, exponents_eager(ctx)[0])
        for mu in range(4):
            assert _same(ctx.xhat(mu), xhat_by_hand(ctx, mu)), mu

    def test_r0_is_the_zero_pair(self):
        zero = LambdaPoly()
        for lam in (None, Fraction(1, 3)):
            ctx = TwistContext(order=N, lam=lam)
            lam_poly = ctx.lam_poly
            lam_less_1 = lam_poly - LambdaPoly.const(1)
            assert ctx.R0 == (zero, zero, N)
            assert ctx.R == (lam_poly, lam_less_1, N)
            assert ctx.Rtilde == (lam_less_1, lam_poly, N)

    @given(
        st.sampled_from(_FAMILY_SETTINGS).flatmap(
            lambda s: st.tuples(
                st.just(_context(*s)), _polynomials(s[0]), _polynomials(s[0])
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_star_products(self, drawn):
        ctx, f, g = drawn
        for which in ("F", "Ftilde"):
            want = star_product_by_flavor(ctx, f, g, which)
            assert _same(ctx.star_product(f, g, which), want), which


class TestRelationSetValue:
    """A relation set is its (sigma, tau, N) value: equal settings give
    equal relation sets, and their rules are one process-wide memo entry."""

    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)], ids=["sym", "1/3"])
    def test_equal_settings_share_the_memos(self, lam):
        a, b = TwistContext(order=4, lam=lam), TwistContext(order=4, lam=lam)
        for tag in ("R0", "R", "Rtilde"):
            rel_a, rel_b = getattr(a, tag), getattr(b, tag)
            assert rel_a == rel_b, tag
            assert rel_a.x0_rule() is rel_b.x0_rule(), tag
            for d in range(5):
                assert rel_a.shift(d) is rel_b.shift(d), (tag, d)
            for k in range(1, 5):
                assert rel_a.dilatation_power(k) is rel_b.dilatation_power(k), (tag, k)

    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)], ids=["sym", "1/3"])
    def test_lower_order_is_a_replaced_order(self, lam):
        # what `rexpand` relies on when it canonicalizes at truncation k < N
        rtilde = TwistContext(order=6, lam=lam).Rtilde
        for k in range(1, 7):
            assert rtilde._replace(order=k) == TwistContext(order=k, lam=lam).Rtilde, k

    def test_r_and_rtilde_differ(self):
        ctx = TwistContext(order=3, lam=Fraction(1, 2))
        assert ctx.R != ctx.Rtilde

"""Two-leg tensor algebra, flips, exponentials, relation sets and
canonical forms."""

import inspect
import itertools
import operator
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kappatwist
import kappatwist.tensor as tensor_module
from kappatwist.algebra import (
    ZERO_EXP,
    AlgebraElement,
    Monomial,
    Polynomial,
    commutator,
    dilatation,
    exp_coeffs,
    p,
    power_series,
    time_translation,
    x,
)
from kappatwist.hopf import TwistContext
from kappatwist.scalars import DomainError, LambdaPoly, Scalar, UsageError
from kappatwist.tensor import (
    TensorElement,
    TensorElement3,
    canonical_exp,
    canonicalize,
    equal_mod,
    fold,
    orbit_representative,
    t3_exp,
    t_adjoint,
    t_exp,
    tau0,
    tensor,
    unfold,
)
from paper_reference import embed, tensor3

N = 3


def simple_tensors():
    gens = st.sampled_from(["x1", "p0", "p1", "x0"])
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def build(pairs):
        ctx = TwistContext(order=N)
        out = TensorElement.zero(N)
        for g1, g2, c in pairs:
            out = out + tensor(ctx.generator(g1), ctx.generator(g2)).scale(
                Scalar.from_value(c, N)
            )
        return out

    return st.builds(build, st.lists(st.tuples(gens, gens, coeff), max_size=3))


def graded_tensors():
    """Tensors whose coefficients spread over a0 grades 0..N and powers of lam."""
    gens = st.sampled_from(["x1", "p0", "p1", "x0", "S"])
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    grade = st.integers(0, N)
    lam_power = st.integers(0, 2)

    def build(pairs):
        ctx = TwistContext(order=N)
        out = TensorElement.zero(N)
        for g1, g2, c, k, j in pairs:
            s = Scalar.graded(LambdaPoly({j: c}), k, N)
            out = out + tensor(ctx.generator(g1), ctx.generator(g2)).scale(s)
        return out

    return st.builds(
        build, st.lists(st.tuples(gens, gens, coeff, grade, lam_power), max_size=4)
    )


@st.composite
def relation_and_tensors(
    draw, count, min_grade, max_order=4, lams=(None, Fraction(1, 2), Fraction(1, 3))
):
    """A relation set (R0, R or Rtilde; lam drawn from `lams`, symbolic for
    None; N <= max_order) and `count` tensors of its order whose terms carry
    a0-grade >= min_grade."""
    n = draw(st.integers(max(1, min_grade), max_order))
    lam = draw(st.sampled_from(lams))
    ctx = TwistContext(order=n, lam=lam)
    rel = draw(st.sampled_from([ctx.R0, ctx.R, ctx.Rtilde]))
    gens = st.sampled_from(["x0", "x1", "x2", "p0", "p1", "S", "A"])
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    lam_power = st.integers(0, 1 if lam is None else 0)
    term = st.tuples(gens, gens, coeff, st.integers(min_grade, n), lam_power)
    out = []
    for _ in range(count):
        t = TensorElement.zero(n)
        for g1, g2, c, k, j in draw(st.lists(term, min_size=1, max_size=3)):
            s = Scalar.graded(LambdaPoly({j: c}), k, n)
            t = t + tensor(ctx.generator(g1), ctx.generator(g2)).scale(s)
        out.append(t)
    return rel, *out


class TestTensorAlgebra:
    def test_legwise_product(self):
        a = tensor(x(1, N), p(0, N))
        b = tensor(p(1, N), x(0, N))
        ab = a * b
        # left legs multiply: x1 p1; right legs: p0 x0 = x0 p0 - i eta_00
        left = x(1, N) * p(1, N)
        right = p(0, N) * x(0, N)
        assert ab == tensor_of_product(left, right)

    @given(graded_tensors(), graded_tensors())
    @settings(max_examples=40, deadline=None)
    def test_product_matches_termwise_legs(self, a, b):
        # every pair of terms, with no grade-based early stop
        expect = TensorElement.zero(N)
        for (l1, r1), s1 in a.terms.items():
            for (l2, r2), s2 in b.terms.items():
                left = AlgebraElement.monomial(l1, N) * AlgebraElement.monomial(l2, N)
                right = AlgebraElement.monomial(r1, N) * AlgebraElement.monomial(r2, N)
                expect = expect + tensor(left, right).scale(s1 * s2)
        assert a * b == expect

    @given(simple_tensors(), simple_tensors(), simple_tensors())
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_tau0_involution_and_antihomomorphism(self):
        a = tensor(x(1, N), p(0, N))
        b = tensor(p(1, N), x(2, N))
        assert tau0(tau0(a)) == a
        assert tau0(a * b) == tau0(a) * tau0(b)

    def test_t_commutator(self):
        a = tensor(p(1, N), AlgebraElement.one(N))
        b = tensor(x(1, N), AlgebraElement.one(N))
        c = commutator(a, b)
        assert c == tensor(
            AlgebraElement.one(N).scale(-Scalar.i(N)), AlgebraElement.one(N)
        )

    @given(graded_tensors(), st.integers(0, N))
    @settings(max_examples=40, deadline=None)
    def test_order_round_trip_keeps_low_grades(self, t, m):
        low = TensorElement.zero(N)
        for k in range(m + 1):
            low = low + t.grade_part(k)
        lowered = t.at_order(m)
        assert lowered.order == m
        assert lowered.at_order(N) == low
        assert t.at_order(N + 2).at_order(N) == t


def tensor_of_product(left, right):
    out = TensorElement.zero(N)
    for ml, sl in left.terms.items():
        for mr, sr in right.terms.items():
            out = out + tensor(
                AlgebraElement.monomial(ml, N), AlgebraElement.monomial(mr, N)
            ).scale(sl * sr)
    return out


class TestExponentials:
    def test_t_exp_inverse(self):
        ctx = TwistContext(order=N)
        f = ctx.twist_exponent
        assert t_exp(f) * t_exp(-f) == TensorElement.one(N)

    def test_adjoint_matches_conjugation(self):
        ctx = TwistContext(order=N)
        f = ctx.twist_exponent
        target = tensor(p(1, N), x(2, N))
        conj = (t_exp(f) * target) * t_exp(-f)
        assert t_adjoint(f, target) == conj

    def test_three_leg_embeddings(self):
        u, v, one = p(1, N), x(1, N), AlgebraElement.one(N)
        t = tensor(u, v)
        assert embed(t, 0) == tensor3(one, u, v)
        assert embed(t, 1) == tensor3(u, one, v)
        assert embed(t, 2) == tensor3(u, v, one)

    def test_t3_exp_inverse(self):
        a = tensor3(
            time_translation(N), dilatation(N), AlgebraElement.one(N)
        ) * Scalar.i(N)
        assert t3_exp(a) * t3_exp(-a) == tensor3(
            AlgebraElement.one(N), AlgebraElement.one(N), AlgebraElement.one(N)
        )


def canonical_exp_unfolded(a, rel):
    """The canonical exponential that the orbit fold replaced: every power
    kept canonical on all of its keys, for any exponent."""
    return power_series(
        a, exp_coeffs(a.order), step=lambda t: canonicalize(t * a, rel)
    )


SPATIAL_PERMUTATIONS = list(itertools.permutations((1, 2, 3)))


def permute_key(key, g):
    """The key with the spatial axes permuted by g, on x and p of both legs."""

    def move(e):
        return (e[0], *(e[i] for i in g))

    return tuple(Monomial(move(m.alpha), move(m.beta)) for m in key)


def permuted(t, g):
    """g.t, the permutation g applied to every key."""
    return TensorElement({permute_key(k, g): s for k, s in t.terms.items()}, t.order)


def symmetrized(t):
    """The sum of g.t over the six permutations g, which is invariant."""
    out = TensorElement.zero(t.order)
    for g in SPATIAL_PERMUTATIONS:
        out = out + permuted(t, g)
    return out


class TestCanonicalExp:
    @given(relation_and_tensors(1, min_grade=1))
    @settings(max_examples=40, deadline=None)
    def test_matches_canonicalized_exp(self, drawn):
        # the right-ideal argument, on exponents of any symmetry
        rel, a = drawn
        assert canonical_exp_unfolded(a, rel) == canonicalize(t_exp(a), rel)

    @given(relation_and_tensors(2, min_grade=0))
    @settings(max_examples=40, deadline=None)
    def test_relations_span_a_right_ideal(self, drawn):
        # what canonical_exp relies on: the uncanonical left factor of a
        # product may be canonicalized first
        rel, a, b = drawn
        assert canonicalize(a * b, rel) == canonicalize(canonicalize(a, rel) * b, rel)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rmatrix_canonical_matches_old_route(self, n):
        ctx = TwistContext(order=n)
        assert ctx.rmatrix_canonical() == canonicalize(ctx.rmatrix(), ctx.Rtilde)

    @pytest.mark.parametrize("tag", ["R0", "R", "Rtilde"])
    def test_twist_exponents_in_every_relation_set(self, tag):
        ctx = TwistContext(order=4)
        rel = getattr(ctx, tag)
        for a in (ctx.r_exponent, ctx.twist_exponent, -ctx.twist_exponent):
            assert canonical_exp(a, rel) == canonicalize(t_exp(a), rel)


LAMS_WITH_NEGATIVE = (None, Fraction(1, 3), Fraction(1, 2), Fraction(-5, 3))


class TestOrbitFold:
    @given(relation_and_tensors(1, min_grade=1, max_order=5, lams=LAMS_WITH_NEGATIVE))
    @settings(max_examples=60, deadline=None)
    def test_matches_unfolded_series(self, drawn):
        rel, a = drawn
        a = symmetrized(a)
        assert canonical_exp(a, rel) == canonical_exp_unfolded(a, rel)

    @given(relation_and_tensors(1, min_grade=0, lams=LAMS_WITH_NEGATIVE))
    @settings(max_examples=30, deadline=None)
    def test_canonicalize_is_equivariant(self, drawn):
        # the contract of every RelationSet that the fold relies on
        rel, t = drawn
        canon = canonicalize(t, rel)
        for g in SPATIAL_PERMUTATIONS:
            assert canonicalize(permuted(t, g), rel) == permuted(canon, g), g

    @given(relation_and_tensors(1, min_grade=0))
    @settings(max_examples=40, deadline=None)
    def test_representative_names_the_orbit(self, drawn):
        _rel, t = drawn
        for key in t.terms:
            images = {permute_key(key, g) for g in SPATIAL_PERMUTATIONS}
            assert orbit_representative(key) in images
            assert {orbit_representative(k) for k in images} == {orbit_representative(key)}

    @given(relation_and_tensors(1, min_grade=0))
    @settings(max_examples=40, deadline=None)
    def test_unfold_inverts_fold_on_invariants(self, drawn):
        _rel, t = drawn
        sym = symmetrized(t)
        folded = fold(sym)
        assert unfold(folded) == sym
        assert all(orbit_representative(key) == key for key in folded.terms)

    def test_rejects_non_invariant_exponent(self):
        ctx = TwistContext(order=3)
        a = tensor(x(0, 3), x(1, 3)).scale(Scalar.a0(3))
        assert unfold(a) != a
        with pytest.raises(DomainError, match="permutations of the spatial axes"):
            canonical_exp(a, ctx.Rtilde)


class TestRelations:
    def test_r0_identifies_x_legs(self):
        rel = TwistContext(order=N).R0
        a = tensor(x(2, N), AlgebraElement.one(N))
        b = tensor(AlgebraElement.one(N), x(2, N))
        assert equal_mod(a, b, rel)
        assert canonicalize(a, rel) == canonicalize(b, rel)

    def test_canonical_form_left_leg_x_free(self):
        ctx = TwistContext(order=N)
        for tag in ("R0", "R", "Rtilde"):
            rel = {"R0": ctx.R0, "R": ctx.R, "Rtilde": ctx.Rtilde}[tag]
            t = tensor(x(1, N) * x(0, N), p(1, N))
            canon = canonicalize(t, rel)
            assert all(
                sum(l.alpha) == 0 for (l, _r) in canon.terms
            ), f"{tag} left leg not x-free"

    def test_canonicalize_idempotent(self):
        ctx = TwistContext(order=N)
        t = tensor(x(1, N), p(0, N)) + tensor(x(0, N), x(1, N))
        once = canonicalize(t, ctx.R)
        assert canonicalize(once, ctx.R) == once

    def test_inequivalent_not_identified(self):
        ctx = TwistContext(order=N)
        a = tensor(p(1, N), AlgebraElement.one(N))
        b = tensor(p(2, N), AlgebraElement.one(N))
        assert not equal_mod(a, b, ctx.R)

    def test_rejects_mixed_orders(self):
        with pytest.raises(UsageError):
            tensor(x(1, 2), p(0, 3))


@pytest.mark.parametrize(
    "cls",
    [AlgebraElement, Polynomial, TensorElement, TensorElement3],
    ids=lambda cls: cls.__name__,
)
@pytest.mark.parametrize("op", [operator.add, operator.mul, operator.eq], ids=["add", "mul", "eq"])
def test_containers_reject_mixed_orders(cls, op):
    with pytest.raises(UsageError):
        op(cls.one(3), cls.zero(4))


def test_tensor_str_zero():
    assert str(TensorElement.zero(N)) == "0"


def tensor3_loop(a, b, c):
    """The former tensor3: a triple loop over the legs' terms."""
    out = {}
    for m1, s1 in a.terms.items():
        for m2, s2 in b.terms.items():
            s12 = s1 * s2
            if s12.is_zero():
                continue
            for m3, s3 in c.terms.items():
                s = s12 * s3
                if not s.is_zero():
                    out[(m1, m2, m3)] = s
    return TensorElement3(out, a.order)


@st.composite
def graded_legs(draw, count):
    """`count` plain elements of one order 1..4 whose coefficients spread
    over a0 grades and powers of lam, so that leg products can truncate."""
    n = draw(st.integers(1, 4))
    ctx = TwistContext(order=n)
    gens = st.sampled_from(["x0", "x1", "p0", "p1", "S", "A"])
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    term = st.tuples(gens, coeff, st.integers(0, n), st.integers(0, 2))
    legs = []
    for _ in range(count):
        leg = AlgebraElement.zero(n)
        for g, c, k, j in draw(st.lists(term, min_size=1, max_size=3)):
            leg = leg + ctx.generator(g).scale(Scalar.graded(LambdaPoly({j: c}), k, n))
        legs.append(leg)
    return legs


@given(graded_legs(3))
@settings(max_examples=60, deadline=None)
def test_three_leg_tensor_matches_triple_loop(legs):
    got = tensor3(*legs)
    assert isinstance(got, TensorElement3)
    assert got == tensor3_loop(*legs)


def test_tensor_rejects_mixed_orders():
    with pytest.raises(UsageError):
        tensor3(p(1, N), p(1, N), p(1, N + 1))


def test_package_attribute_tensor_is_the_module():
    assert inspect.ismodule(kappatwist.tensor)
    assert hasattr(kappatwist.tensor, "MAX_REWRITE_STEPS")


def canonicalize_by_coordinate(t, rel):
    """The former `canonicalize`: peel the smallest coordinate x_mu off a
    left leg and multiply by its rule (the x0 rule, or shift(1) * (1 (x) x_i)
    for a spatial x_i), one rewrite per coordinate, until every left leg is
    coordinate-free."""
    one = AlgebraElement.one(t.order)
    done, work = {}, dict(t.terms)
    while work:
        (ml, mr), s = work.popitem()
        if s.is_zero():
            continue
        if ml.x_degree() == 0:
            done[(ml, mr)] = done[(ml, mr)] + s if (ml, mr) in done else s
            continue
        mu = next(mu for mu, e in enumerate(ml.alpha) if e)
        rest = Monomial(tuple(e - (nu == mu) for nu, e in enumerate(ml.alpha)), ml.beta)
        rule = rel.x0_rule() if mu == 0 else rel.shift(1) * tensor(one, x(mu, t.order))
        produced = rule * TensorElement({(rest, mr): s}, t.order)
        for k, s2 in produced.terms.items():
            work[k] = work[k] + s2 if k in work else s2
    return TensorElement(done, t.order)


_LAMS = [None, Fraction(1, 3), Fraction(1, 2), Fraction(-5, 3)]


@st.composite
def spatial_tensors(draw):
    """A relation set (R0, R or Rtilde; lam symbolic, 1/3, 1/2 or -5/3;
    N = 1..6) and a tensor of its order.  Left legs mix x0 (up to x0^3,
    three rounds of `canonicalize`) with x1..x3;
    right legs carry x0, so that the Z powers of a shift contract with
    them; coefficients spread over a0 grades and, for symbolic lam, over
    powers of lam."""
    n = draw(st.integers(1, 6))
    lam = draw(st.sampled_from(_LAMS))
    ctx = TwistContext(order=n, lam=lam)
    rel = draw(st.sampled_from([ctx.R0, ctx.R, ctx.Rtilde]))
    small = st.integers(0, 2)
    left = st.builds(
        Monomial,
        st.tuples(st.integers(0, 3), small, st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(0), st.just(0)),
    )
    right = st.builds(
        Monomial,
        st.tuples(st.integers(0, 2), st.integers(0, 1), st.just(0), st.integers(0, 1)),
        st.tuples(st.integers(0, 1), st.just(0), st.integers(0, 1), st.just(0)),
    )
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    lam_power = st.integers(0, 2 if lam is None else 0)
    term = st.tuples(left, right, coeff, st.integers(0, n), lam_power)
    terms = {}
    for ml, mr, c, k, j in draw(st.lists(term, min_size=1, max_size=3)):
        terms[(ml, mr)] = Scalar.graded(LambdaPoly({j: c}), k, n)
    return rel, TensorElement(terms, n)


class TestClosedFormCanonicalize:
    @given(spatial_tensors())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_coordinate_rewriting(self, drawn):
        rel, t = drawn
        assert canonicalize(t, rel) == canonicalize_by_coordinate(t, rel)

    @pytest.mark.parametrize("lam", _LAMS, ids=str)
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_shift_contract(self, n, lam):
        ctx = TwistContext(order=n, lam=lam)
        for tag in ("R0", "R", "Rtilde"):
            rel = getattr(ctx, tag)
            for d in range(n + 3):
                assert rel.shift(d) == rel.shift(1) ** d, (tag, d)

    @pytest.mark.parametrize("tag", ["R0", "R", "Rtilde"])
    def test_closed_form_counts_one_step_per_coordinate(self, tag, monkeypatch):
        # x1 x2^2 p1 (x) x0 stands for three rewrites
        rel = getattr(TwistContext(order=N), tag)
        left = Monomial((0, 1, 2, 0), (0, 1, 0, 0))
        t = TensorElement({(left, Monomial((1, 0, 0, 0), ZERO_EXP)): Scalar.one(N)}, N)
        monkeypatch.setattr(tensor_module, "MAX_REWRITE_STEPS", 3)
        assert canonicalize(t, rel) == canonicalize_by_coordinate(t, rel)
        monkeypatch.setattr(tensor_module, "MAX_REWRITE_STEPS", 2)
        with pytest.raises(DomainError):
            canonicalize(t, rel)


class TestRounds:
    """`canonicalize` makes one product by the x0 rule per round, at most
    as many rounds as the largest x0 degree of a left leg, and one product
    by shift(d) per spatial degree d."""

    # x0^3 x1 p1 (x) p0 + x0^2 x2^2 (x) x0 - 2 x0 x3 p0 (x) 1 + x1 x2 (x) x3
    # + p1 (x) x1
    TERMS = [
        (((3, 1, 0, 0), (0, 1, 0, 0)), ((0, 0, 0, 0), (1, 0, 0, 0)), 1),
        (((2, 0, 2, 0), (0, 0, 0, 0)), ((1, 0, 0, 0), (0, 0, 0, 0)), 1),
        (((1, 0, 0, 1), (1, 0, 0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0)), -2),
        (((0, 1, 1, 0), (0, 0, 0, 0)), ((0, 0, 0, 1), (0, 0, 0, 0)), 1),
        (((0, 0, 0, 0), (0, 1, 0, 0)), ((0, 1, 0, 0), (0, 0, 0, 0)), 1),
    ]

    @pytest.mark.parametrize("lam", [None, Fraction(1, 3)], ids=str)
    @pytest.mark.parametrize("tag", ["R0", "R", "Rtilde"])
    @pytest.mark.parametrize("count", [1, 5])
    def test_one_rule_product_per_round(self, count, tag, lam):
        n = 4
        rel = getattr(TwistContext(order=n, lam=lam), tag)
        calls = Counter()

        def x0_rule():
            calls["x0_rule"] += 1
            return rel.x0_rule()

        def shift(d):
            calls[d] += 1
            return rel.shift(d)

        t = TensorElement(
            {
                (Monomial(*left), Monomial(*right)): Scalar.from_value(c, n)
                for left, right, c in self.TERMS[:count]
            },
            n,
        )
        canonicalize(t, SimpleNamespace(order=n, x0_rule=x0_rule, shift=shift))
        assert calls.pop("x0_rule", 0) <= max(ml.alpha[0] for ml, _mr in t.terms)
        assert all(k == 1 for k in calls.values()), calls

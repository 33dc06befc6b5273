"""Exact coefficient arithmetic: Gaussian rationals, lambda-polynomials
and graded truncated scalars."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist.algebra import UNIT_MONOMIAL, z_power
from kappatwist.hopf import TwistContext
from kappatwist.parser import elaborate, parse
from kappatwist.scalars import (
    LP_LAM,
    LP_ONE,
    GaussianRational,
    LambdaPoly,
    Scalar,
    UsageError,
    as_gaussian,
    as_lambda_poly,
)
from paper_reference import StandaloneLambdaPoly, substitute_lambda

rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
)


def gaussians():
    return st.builds(GaussianRational, rationals, rationals)


@st.composite
def scalars(draw, order):
    """A Scalar at `order` spread over several a0 grades and lam powers."""
    acc = Scalar.zero(order)
    entries = st.tuples(st.integers(0, order), st.integers(0, 2), rationals, rationals)
    for k, j, re, im in draw(st.lists(entries, max_size=6)):
        acc = acc + Scalar.graded(LambdaPoly({j: GaussianRational(re, im)}), k, order)
    return acc


def scalar_triples():
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(scalars(n), scalars(n), scalars(n))
    )


def lambda_polys():
    return st.builds(
        lambda pairs: LambdaPoly(dict(pairs)),
        st.lists(st.tuples(st.integers(0, 3), gaussians()), max_size=3),
    )


class TestGaussianRational:
    @given(gaussians(), gaussians(), gaussians())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(gaussians())
    @settings(max_examples=60, deadline=None)
    def test_field_inverse(self, a):
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == GaussianRational(1)

    @given(gaussians(), gaussians())
    @settings(max_examples=60, deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        if b:
            assert (a / b) * b == a

    def test_imaginary_unit(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1)
        assert i**4 == GaussianRational(1)
        assert i**-1 == -i

    def test_str(self):
        assert str(GaussianRational(Fraction(1, 2))) == "1/2"
        assert str(GaussianRational(0, 1)) == "I"
        assert str(GaussianRational(0, -1)) == "-I"
        assert str(GaussianRational(0)) == "0"

    @given(st.one_of(st.integers(-30, 30), rationals, gaussians()))
    @settings(max_examples=80, deadline=None)
    def test_equal_values_hash_equal(self, value):
        """An int, a Fraction and a GaussianRational of one value hash
        equal and find each other as dict keys."""
        g = as_gaussian(value)
        forms = [g]
        if not g.im:
            forms += [g.re] + ([g.re.numerator] if g.re.denominator == 1 else [])
        for a, b in itertools.product(forms, repeat=2):
            assert a == b
            assert hash(a) == hash(b)
            assert {a: "found"}.get(b) == "found"


class TestLambdaPoly:
    @given(lambda_polys(), lambda_polys(), lambda_polys())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(lambda_polys(), rationals)
    @settings(max_examples=40, deadline=None)
    def test_eval_is_homomorphism(self, a, v):
        b = LambdaPoly.gen()
        assert (a * b).eval(v) == a.eval(v) * b.eval(v)
        assert (a + b).eval(v) == a.eval(v) + b.eval(v)

    @given(lambda_polys(), lambda_polys(), gaussians(), rationals)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_order0_scalar(self, a, b, c, v):
        def as_scalar(value):
            return Scalar.from_value(value, 0)

        sa, sb = as_scalar(a), as_scalar(b)
        assert as_scalar(a + b) == sa + sb
        assert as_scalar(a - b) == sa - sb
        assert as_scalar(-a) == -sa
        assert as_scalar(a * b) == sa * sb
        assert as_scalar(a.scale(c)) == sa.scale(c)
        assert as_scalar(a.eval(v)) == substitute_lambda(sa, v)

    @given(lambda_polys(), lambda_polys())
    @settings(max_examples=40, deadline=None)
    def test_equal_values_hash_equal(self, a, b):
        for left, right in (((a + b) - b, a), (a * b, b * a), (a - a, LambdaPoly())):
            assert left == right
            assert hash(left) == hash(right)

    def test_exact_constants_add_and_subtract(self):
        assert 1 - LambdaPoly.gen() == LP_ONE - LP_LAM
        assert LambdaPoly.const(1) + 1 == LambdaPoly.const(2)
        assert Fraction(1, 2) + LP_LAM - GaussianRational(0, 1) == LambdaPoly(
            {0: GaussianRational(Fraction(1, 2), -1), 1: 1}
        )

    def test_const_and_degree(self):
        p = LambdaPoly.const(Fraction(3, 7))
        assert p == LambdaPoly({0: Fraction(3, 7)})
        assert LambdaPoly.gen() == LambdaPoly({1: 1})


class TestScalar:
    def test_truncation_drops_high_grades(self):
        a = Scalar.a0(3, 2)
        b = Scalar.a0(3, 2)
        assert (a * b).is_zero()

    def test_grading(self):
        s = Scalar.one(4) + Scalar.a0(4, 2).scale(5)
        assert s.grade_part(0) == Scalar.one(4)
        assert s.grade_part(2) == Scalar.a0(4, 2).scale(5)
        assert s.grade_part(1).is_zero()

    def test_a0_limit(self):
        s = Scalar.one(4) + Scalar.a0(4)
        assert s.a0_limit() == Scalar.one(4)

    def test_substitute_lambda(self):
        s = Scalar.from_value(LP_LAM, 3) * Scalar.from_value(LP_LAM, 3)
        v = substitute_lambda(s, Fraction(1, 2))
        assert v == Scalar.from_value(Fraction(1, 4), 3)

    def test_order_mismatch_rejected(self):
        with pytest.raises(UsageError):
            Scalar.one(3) + Scalar.one(4)

    @given(rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes(self, a, b):
        sa = Scalar.from_value(a, 3) + Scalar.a0(3).scale(b)
        sb = Scalar.from_value(b, 3) + Scalar.a0(3, 2).scale(a)
        assert sa * sb == sb * sa


    @given(scalar_triples())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_under_truncation(self, abc):
        a, b, c = abc
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(scalar_triples(), rationals)
    @settings(max_examples=60, deadline=None)
    def test_substitute_lambda_is_homomorphism(self, abc, v):
        a, b, _ = abc
        assert substitute_lambda(a * b, v) == substitute_lambda(a, v) * substitute_lambda(b, v)
        assert substitute_lambda(a + b, v) == substitute_lambda(a, v) + substitute_lambda(b, v)
        assert substitute_lambda(Scalar.from_value(LP_LAM, a.order), v) == Scalar.from_value(v, a.order)

    @given(scalar_triples())
    @settings(max_examples=60, deadline=None)
    def test_grade_parts_sum_to_value(self, abc):
        a = abc[0]
        parts = [a.grade_part(k) for k in range(a.order + 1)]
        assert sum(parts, Scalar.zero(a.order)) == a
        for k, part in enumerate(parts):
            assert part.is_zero() or part.min_grade() == k

    @given(scalar_triples(), rationals)
    @settings(max_examples=60, deadline=None)
    def test_numeric_coefficient_rejects_lambda(self, abc, v):
        a = abc[0]
        n = a.order
        numeric = substitute_lambda(a, v)
        rebuilt = Scalar.zero(n)
        for k in range(n + 1):
            rebuilt = rebuilt + Scalar.graded(numeric.numeric_coefficient(k), k, n)
        assert rebuilt == numeric
        symbolic = a * Scalar.from_value(LP_LAM, n)
        for k in range(n + 1):
            if not symbolic.grade_part(k).is_zero():
                with pytest.raises(UsageError):
                    symbolic.numeric_coefficient(k)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(scalars(n), st.integers(0, n))))
    @settings(max_examples=60, deadline=None)
    def test_order_round_trip_keeps_low_grades(self, a_and_m):
        a, m = a_and_m
        n = a.order
        low = sum((a.grade_part(k) for k in range(m + 1)), Scalar.zero(n))
        lowered = a.at_order(m)
        assert lowered.order == m
        assert lowered.at_order(n) == low
        assert a.at_order(n + 2).at_order(n) == a


coefficient_dicts = st.dictionaries(st.integers(0, 3), gaussians(), max_size=3)


class TestLambdaPolyIsOrder0Scalar:
    """`LambdaPoly` is a Scalar at truncation order 0; the standalone class
    it replaced (`paper_reference.StandaloneLambdaPoly`) is the oracle."""

    @given(coefficient_dicts, coefficient_dicts, gaussians(), rationals)
    @settings(max_examples=80, deadline=None)
    def test_matches_standalone_class(self, da, db, c, v):
        a, b = LambdaPoly(da), LambdaPoly(db)
        ra, rb = StandaloneLambdaPoly(da), StandaloneLambdaPoly(db)
        results = [
            (a + b, ra + rb),
            (a - b, ra - rb),
            (-a, -ra),
            (a * b, ra * rb),
            (a.scale(c), ra.scale(c)),
            (a + c, ra + c),
            (c + a, c + ra),
            (a - c, ra - c),
            (c - a, c - ra),
            (a * c, ra * c),
            (c * a, c * ra),
            (LambdaPoly.const(c), StandaloneLambdaPoly.const(c)),
            (LambdaPoly.gen(), StandaloneLambdaPoly.gen()),
        ]
        for got, want in results:
            assert type(got) is LambdaPoly and got.order == 0
            assert got.terms == want.terms
            assert bool(got) == bool(want)
        assert a.eval(v) == ra.eval(v)
        for left, right, rleft, rright in (
            (a, b, ra, rb),
            ((a + b) - b, a, (ra + rb) - rb, ra),
            (a * b, b * a, ra * rb, rb * ra),
        ):
            assert (left == right) == (rleft == rright)
            assert (left != right) == (rleft != rright)
            if rleft == rright:
                assert hash(left) == hash(right)
                assert hash(rleft) == hash(rright)

    @given(coefficient_dicts, st.integers(1, 6).flatmap(scalars))
    @settings(max_examples=60, deadline=None)
    def test_mixed_with_a_scalar_at_n(self, da, s):
        a, n = LambdaPoly(da), s.order
        lifted = a.at_order(n)
        assert type(lifted) is Scalar and lifted.order == n
        assert lifted == Scalar.from_value(a, n)
        assert (a == Scalar.from_value(a, 0)) is False
        for got, want in (
            (s + a, s + lifted),
            (a + s, lifted + s),
            (s - a, s - lifted),
            (a - s, lifted - s),
            (s * a, s * lifted),
            (a * s, lifted * s),
        ):
            assert type(got) is Scalar and got.order == n
            assert got == want

    def test_equal_polys_share_one_z_power_entry(self):
        """lam - 1 built by the constructor, by arithmetic and from a parsed
        Z^[lam-1] exponent is one z_power memo entry."""
        n = 2
        ctx = TwistContext(order=n)
        node = parse("Z^[lam-1]")
        parsed = as_lambda_poly(elaborate(node[1], ctx).coefficient(UNIT_MONOMIAL))
        built = [LambdaPoly({0: -1, 1: 1}), LP_LAM - LP_ONE, parsed]
        assert all(type(poly) is LambdaPoly for poly in built)
        first = z_power(built[0], n)
        before = z_power.cache_info()
        assert all(z_power(poly, n) is first for poly in built[1:])
        assert elaborate(node, ctx) is first
        after = z_power.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)

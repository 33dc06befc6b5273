"""Phase-space algebra kernel: normal ordering, commutators, module
action, group-like exponentials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist.algebra import (
    AlgebraElement,
    DIM,
    ETA,
    Monomial,
    Polynomial,
    UNIT_MONOMIAL,
    ZERO_EXP,
    _bump,
    _reorder_1d,
    act,
    commutator,
    dilatation,
    graded_exp,
    monomial_product,
    p,
    time_translation,
    x,
    z_power,
)
from kappatwist.scalars import DomainError, GaussianRational, LambdaPoly, Scalar, UsageError
from kappatwist.tensor import TensorElement, t3_exp, t_adjoint, t_exp, tensor
from paper_reference import tensor3

N = 3


def monomials(max_deg=2):
    def build(pairs_x, pairs_p):
        alpha = [0] * DIM
        beta = [0] * DIM
        for mu in pairs_x:
            alpha[mu] += 1
        for mu in pairs_p:
            beta[mu] += 1
        return Monomial(tuple(alpha), tuple(beta))

    idx = st.integers(0, DIM - 1)
    return st.builds(
        build,
        st.lists(idx, max_size=max_deg),
        st.lists(idx, max_size=max_deg),
    )


def elements(order=N, max_terms=3):
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

    def build(pairs):
        out = AlgebraElement.zero(order)
        for m, c in pairs:
            out = out + AlgebraElement.monomial(m, order).scale(
                Scalar.from_value(c, order)
            )
        return out

    return st.builds(
        build, st.lists(st.tuples(monomials(), coeff), max_size=max_terms)
    )


class TestCommutators:
    def test_canonical_pairs(self):
        for mu in range(DIM):
            for nu in range(DIM):
                got = commutator(p(mu, N), x(nu, N))
                expect = AlgebraElement.zero(N)
                if mu == nu:
                    expect = AlgebraElement.one(N).scale(
                        Scalar.i(N).scale(-ETA[mu])
                    )
                assert got == expect, f"[p{mu}, x{nu}]"

    def test_coordinates_commute(self):
        for mu in range(DIM):
            for nu in range(DIM):
                assert commutator(x(mu, N), x(nu, N)).is_zero()
                assert commutator(p(mu, N), p(nu, N)).is_zero()

    def test_dilatation_weights(self):
        S = dilatation(N)
        for k in (1, 2, 3):
            assert commutator(S, p(k, N)) == p(k, N).scale(Scalar.i(N))
            assert commutator(S, x(k, N)) == x(k, N).scale(-Scalar.i(N))
        assert commutator(S, p(0, N)).is_zero()
        assert commutator(S, time_translation(N)).is_zero()


class TestProduct:
    @given(elements(), elements(), elements())
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(elements(), elements())
    @settings(max_examples=40, deadline=None)
    def test_distributivity(self, a, b):
        c = x(1, N) * p(1, N)
        assert (a + b) * c == a * c + b * c

    def test_normal_order(self):
        # p1 x1 reorders to x1 p1 - i
        e = p(1, N) * x(1, N)
        assert e.coefficient(
            Monomial((0, 1, 0, 0), (0, 1, 0, 0))
        ) == Scalar.one(N)
        assert e.coefficient(Monomial((0,) * 4, (0,) * 4)) == -Scalar.i(N)

    def test_power(self):
        e = x(1, N) + p(0, N)
        assert e**3 == e * e * e
        assert e**0 == AlgebraElement.one(N)


def _reorder_1d_oracle(mu, b, a):
    """Normal form of p_mu^b x_mu^a with GaussianRational coefficients:
    the k-fold contraction carries (-i*eta)^k C(b,k) C(a,k) k!."""
    base = GaussianRational(0, -ETA[mu])
    return [
        (a - k, b - k, base**k * (math.comb(b, k) * math.comb(a, k) * math.factorial(k)))
        for k in range(min(a, b) + 1)
    ]


def _monomial_product_oracle(m1, m2):
    """monomial_product built from the oracle, index by index."""
    partials = [(ZERO_EXP, ZERO_EXP, GaussianRational(1))]
    for mu in range(DIM):
        partials = [
            (_bump(xe, mu, xa), _bump(pe, mu, pb), c0 * c)
            for xa, pb, c in _reorder_1d_oracle(mu, m1.beta[mu], m2.alpha[mu])
            for xe, pe, c0 in partials
        ]
    return [
        (
            Monomial(
                tuple(x + y for x, y in zip(m1.alpha, xe)),
                tuple(x + y for x, y in zip(pe, m2.beta)),
            ),
            c,
        )
        for xe, pe, c in partials
    ]


class TestNormalOrderingOracle:
    """The packed-triple coefficients against a GaussianRational oracle."""

    @pytest.mark.parametrize("mu", range(DIM))
    def test_reorder_1d(self, mu):
        for b in range(6):
            for a in range(7):
                want = [(xa, pb, c.triple) for xa, pb, c in _reorder_1d_oracle(mu, b, a)]
                assert list(_reorder_1d(mu, b, a)) == want

    @given(monomials(3), monomials(3))
    @settings(max_examples=80, deadline=None)
    def test_monomial_product(self, m1, m2):
        want = [(m, c.triple) for m, c in _monomial_product_oracle(m1, m2)]
        assert sorted(monomial_product(m1, m2)) == sorted(want)


class TestAction:
    @pytest.mark.parametrize("mu", (0, 1))
    def test_derivative_powers(self, mu):
        # p_mu^b |> x_mu^a = (-i eta)^b a!/(a-b)! x_mu^(a-b), zero for a < b
        minus_i_eta = GaussianRational(0, -ETA[mu])
        for b in range(6):
            h = AlgebraElement.monomial(Monomial(ZERO_EXP, _bump(ZERO_EXP, mu, b)), N)
            for a in range(7):
                got = act(h, Polynomial.x_monomial(_bump(ZERO_EXP, mu, a), N))
                if a < b:
                    assert got.is_zero()
                    continue
                c = minus_i_eta**b * (math.factorial(a) // math.factorial(a - b))
                assert got == Polynomial.x_monomial(_bump(ZERO_EXP, mu, a - b), N, c)

    def test_momentum_derivative(self):
        # p_1 |> x1^2 = -i eta_{11} * 2 x1 = -2i x1
        f = Polynomial.x_monomial((0, 2, 0, 0), N)
        got = act(p(1, N), f)
        expect = Polynomial.x_monomial(
            (0, 1, 0, 0), N, Scalar.i(N).scale(-2)
        )
        assert got == expect

    def test_timelike_sign(self):
        # p_0 |> x0 = -i eta_{00} = +i
        f = Polynomial.x_monomial((1, 0, 0, 0), N)
        got = act(p(0, N), f)
        assert got == Polynomial.x_monomial((0, 0, 0, 0), N, Scalar.i(N))

    @given(elements(), elements())
    @settings(max_examples=40, deadline=None)
    def test_composition(self, a, b):
        f = Polynomial.x_monomial((1, 1, 0, 0), N)
        assert act(a * b, f) == act(a, act(b, f))


class TestExponentials:
    def test_z_power_group_law(self):
        za = z_power(LambdaPoly.const(Fraction(1, 2)), N)
        zb = z_power(LambdaPoly.const(Fraction(-1, 2)), N)
        assert za * zb == AlgebraElement.one(N)
        z1 = z_power(LambdaPoly.const(1), N)
        assert za * za == z1
        assert za.a0_limit() == AlgebraElement.one(N)

    def test_z_symbolic_exponent(self):
        lam = LambdaPoly.gen()
        z = z_power(lam, N)
        zc = z_power(-lam, N)
        assert z * zc == AlgebraElement.one(N)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: graded_exp(x(1, N)),
            lambda: t_exp(tensor(x(1, N), p(0, N))),
            lambda: t3_exp(tensor3(x(1, N), p(0, N), p(0, N))),
            lambda: t_adjoint(tensor(x(1, N), p(0, N)), TensorElement.one(N)),
        ],
        ids=["graded_exp", "t_exp", "t3_exp", "t_adjoint"],
    )
    def test_graded_exp_requires_positive_grade(self, call):
        with pytest.raises(DomainError):
            call()

    def test_graded_exp_inverse(self):
        a = time_translation(N).scale(Scalar.i(N))
        assert graded_exp(a) * graded_exp(-a) == AlgebraElement.one(N)


def test_element_str_roundtrippable_tokens():
    e = x(1, N) * p(0, N) - AlgebraElement.one(N).scale(Scalar.i(N))
    s = str(e)
    assert "x1" in s and "p0" in s


def polynomials():
    """A truncation order 1..4 and a polynomial of it, with coefficients
    spread over a0 grades and powers of lam."""
    term = st.tuples(
        st.tuples(*[st.integers(0, 3)] * DIM),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        st.integers(0, 4),
        st.integers(0, 2),
    )

    def build(order, terms):
        out = Polynomial.zero(order)
        for exps, c, k, j in terms:
            out = out + Polynomial.x_monomial(
                exps, order, Scalar.graded(LambdaPoly({j: c}), k, order)
            )
        return out

    return st.builds(build, st.integers(1, 4), st.lists(term, max_size=5))


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_polynomial_renders_as_its_momentum_free_element(f):
    # the former route: a polynomial printed through the AlgebraElement of
    # its momentum-free monomials
    as_element = AlgebraElement(
        {Monomial(e, ZERO_EXP): s for e, s in f.terms.items()}, f.order
    )
    assert str(f) == str(as_element)
    assert repr(f) == f"Polynomial({str(as_element)!r}, N={f.order})"


@pytest.mark.parametrize(
    "build",
    [
        lambda c: AlgebraElement.monomial(UNIT_MONOMIAL, N, c),
        lambda c: Polynomial.x_monomial(ZERO_EXP, N, c),
    ],
    ids=["monomial", "x_monomial"],
)
def test_monomial_coefficients_go_through_scale(build):
    assert build(None) == build(1) == build(Scalar.one(N))
    assert build(Fraction(2, 3)) == build(None).scale(Fraction(2, 3))
    with pytest.raises(UsageError):
        build(Scalar.one(N + 1))
    with pytest.raises(UsageError):
        build(1.5)


@pytest.mark.parametrize(
    "build",
    [
        # a 3-tuple once zipped against a 4-tuple in the product: x0*x1
        lambda: Polynomial.x_monomial((1, 0, 0), N) * Polynomial.x_monomial((0, 1, 0, 0), N),
        # a negative exponent once printed as 1
        lambda: Polynomial.x_monomial((-1, 0, 0, 0), N),
        # a short monomial once raised IndexError in monomial_product
        lambda: AlgebraElement.monomial(Monomial((2,), (1,)), N) * x(1, N),
    ],
    ids=["short-x-monomial", "negative-x-monomial", "short-monomial"],
)
def test_monomial_constructors_reject_malformed_exponents(build):
    with pytest.raises(UsageError, match="4 non-negative integers"):
        build()

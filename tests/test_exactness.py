"""The one exactness gate: every entry point takes ints, Fractions and
GaussianRationals, and nothing else gets into the arithmetic."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist.algebra import AlgebraElement, x
from kappatwist.cli import run
from kappatwist.hopf import TwistContext
from kappatwist.linsolve import solve
from kappatwist.poincare import realization
from kappatwist.rexpand import expand
from kappatwist.scalars import (
    GaussianRational,
    LambdaPoly,
    Scalar,
    UsageError,
    exact_triple,
)
from paper_reference import specialize_coefficients

N = 2
INEXACT = [0.1, "1/3", Decimal("0.5"), None]


@pytest.fixture(scope="module")
def r3():
    ctx = TwistContext(order=3, lam=Fraction(1, 2))
    return expand(3, realization("ii", ctx), ctx)[2]


@pytest.mark.parametrize("value", INEXACT, ids=repr)
class TestInexactRejected:
    def test_named_entry_points_raise_usage_error(self, value, r3):
        ctx = TwistContext(order=N, lam=Fraction(1, 2))
        calls = [
            lambda: GaussianRational(value),
            lambda: GaussianRational(1, value),
            lambda: LambdaPoly({0: value}),
            lambda: Scalar.from_value(value, N),
            lambda: Scalar.graded(value, 1, N),
            lambda: Scalar.one(N).scale(value),
            lambda: AlgebraElement.one(N).scale(value),
            lambda: solve([[value]], [1]),
            lambda: solve([[1]], [value]),
            lambda: ctx.z(value),
            lambda: specialize_coefficients(r3, value, 0, 0),
        ]
        if value is not None:  # lam=None is the symbolic twist parameter
            calls.append(lambda: TwistContext(order=N, lam=value))
        for call in calls:
            with pytest.raises(UsageError):
                call()

    def test_operators_raise_type_error(self, value):
        operands = [
            Scalar.one(N),
            GaussianRational(1, 2),
            LambdaPoly({1: 1}),
            AlgebraElement.one(N),
        ]
        for operand in operands:
            for op in (
                lambda: operand * value,
                lambda: value * operand,
                lambda: operand + value,
                lambda: value + operand,
            ):
                with pytest.raises(TypeError):
                    op()


def test_binary_float_is_not_taken():
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10
    assert exact_triple(0.1) is None
    assert exact_triple(Fraction(1, 10)) == (1, 0, 10)


def test_cli_lambda_text_is_exact(capsys):
    assert run(["eval", "lam", "--lambda", "0.1", "--order", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1/10"
    assert run(["eval", "lam", "--lambda=-5/3", "--order", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-5/3"
    # argparse reads a leading "-" as an option
    assert run(["eval", "lam", "--lambda", "-5/3", "--order", "1"]) == 2


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
exact_values = st.one_of(
    st.integers(-50, 50),
    rationals,
    st.builds(GaussianRational, rationals, rationals),
)


def _parts(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def _by_hand(value) -> tuple[int, int, int]:
    """(a, b, d) with value = (a + b*i)/d, d > 0 and gcd(a, b, d) == 1."""
    re, im = _parts(value)
    d = re.denominator * im.denominator
    a, b = re.numerator * im.denominator, im.numerator * re.denominator
    g = math.gcd(a, b, d)
    return a // g, b // g, d // g


@given(exact_values)
@settings(max_examples=150, deadline=None)
def test_gate_triple_is_normalised(value):
    assert exact_triple(value) == _by_hand(value)


@given(exact_values, exact_values, st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_operands_agree_with_gaussian_form(value, other, lam_degree):
    g = GaussianRational(*_parts(value))
    assert exact_triple(g) == exact_triple(value)
    h = other if isinstance(other, GaussianRational) else GaussianRational(other)
    assert h + value == h + g and value + h == g + h
    assert h * value == h * g and value * h == g * h
    assert (h == value) == (h == g)
    s = Scalar.graded(LambdaPoly({lam_degree: h}), 1, N) + Scalar.one(N)
    assert s + value == s + g and value + s == g + s
    assert s * value == s * g and value * s == g * s
    assert s.scale(value) == s.scale(g)
    assert Scalar.from_value(value, N) == Scalar.from_value(g, N)
    lp = LambdaPoly({lam_degree: h, 0: 1})
    assert lp * value == lp * g and value * lp == g * lp
    assert LambdaPoly({1: value}) == LambdaPoly({1: g})
    e = x(1, N) + AlgebraElement.one(N)
    assert e * value == e * g and value * e == g * e
    assert e.scale(value) == e.scale(g)

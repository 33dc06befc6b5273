"""The commutator, the product's walk over `key_commutator` pairs, against
the two products it replaces and against its former walk of its own; the
coefficient products it saves, the adjoint series built on it, the
key-product invariant it relies on, and powers by repeated squaring
against the linear loop."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist.algebra import (
    DIM,
    AlgebraElement,
    Monomial,
    Polynomial,
    commutator,
    key_commutator,
    p,
    x,
)
from kappatwist.hopf import GENERATORS, CommutingPair, CommutingTriple, TwistContext
from kappatwist.poincare import mhat, realization
from kappatwist.scalars import LambdaPoly, Scalar, UsageError
from kappatwist.tensor import TensorElement, TensorElement3, t_adjoint
from paper_reference import commutator_by_pair_walk

LAMBDAS = [None, Fraction(1, 2), Fraction(1, 3)]


def _exponents(indices) -> tuple:
    return tuple(indices.count(mu) for mu in range(DIM))


# at most two coordinates and two momenta, so that a key product of three
# legs stays small
_exps = st.builds(_exponents, st.lists(st.integers(0, DIM - 1), max_size=2))
_monomials = st.builds(Monomial, _exps, _exps)

# a strategy for the keys of each container
_KEYS = {
    AlgebraElement: _monomials,
    Polynomial: _exps,
    TensorElement: st.tuples(_monomials, _monomials),
    TensorElement3: st.tuples(_monomials, _monomials, _monomials),
    CommutingPair: st.tuples(*[st.integers(0, 2)] * 4),
    CommutingTriple: st.tuples(*[st.integers(0, 2)] * 6),
}


def _add(e1, e2):
    return tuple(a + b for a, b in zip(e1, e2))


def _free_key(k1, k2):
    """The key of the term of k1*k2 with no contraction: exponents add,
    leg by leg."""
    if isinstance(k1, Monomial):
        return Monomial(_add(k1.alpha, k2.alpha), _add(k1.beta, k2.beta))
    if isinstance(k1[0], Monomial):
        return tuple(map(_free_key, k1, k2))
    return _add(k1, k2)


@st.composite
def _elements(draw, kind, order, lam, max_terms=3):
    """An element of `kind` with up to `max_terms` terms whose
    coefficients spread over a0 grades 0..order and, for symbolic lam,
    powers of lam; for a rational lam those powers are numbers."""
    term = st.tuples(
        _KEYS[kind],
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        st.integers(0, order),
        st.integers(0, 2),
    )
    out = kind.zero(order)
    for key, c, k, j in draw(st.lists(term, max_size=max_terms)):
        value = LambdaPoly({j: c}) if lam is None else c * lam**j
        out = out + kind({key: Scalar.graded(value, k, order)}, order)
    return out


@st.composite
def _pair_of_elements(draw):
    kind = draw(st.sampled_from(list(_KEYS)))
    order = draw(st.integers(1, 5))
    lam = draw(st.sampled_from(LAMBDAS))
    elements = _elements(kind, order, lam)
    return draw(elements), draw(elements)


@given(_pair_of_elements())
@settings(max_examples=150, deadline=None)
def test_commutator_equals_the_difference_of_the_two_products(pair):
    a, b = pair
    assert commutator(a, b) == a * b - b * a
    assert commutator(a, b) == commutator_by_pair_walk(a, b)
    assert commutator(a, a).is_zero()


def _polynomial(order):
    one = Scalar.one(order)
    return Polynomial(
        {(1, 0, 0, 0): one, (0, 2, 1, 0): one.scale(3), (0, 0, 0, 1): Scalar.i(order)},
        order,
    )


def _commuting_pair(order):
    one = Scalar.one(order)
    return CommutingPair({(1, 0, 0, 1): one, (0, 1, 2, 0): one.scale(-2)}, order)


@pytest.mark.parametrize(
    "a, b",
    [
        (_polynomial(3), _polynomial(3).scale(2) + Polynomial.one(3)),
        (_commuting_pair(3), _commuting_pair(3) + CommutingPair.one(3)),
        (p(1, 3), x(2, 3)),
    ],
    ids=["Polynomial", "CommutingPair", "p1-x2"],
)
def test_a_pair_that_contracts_in_neither_order_costs_no_coefficient_product(
    monkeypatch, a, b
):
    calls = []
    mul = Scalar.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    assert commutator(a, b).is_zero()
    assert calls == []


def test_commutator_rejects_mixed_containers():
    t = TensorElement.one(2)
    with pytest.raises(UsageError):
        commutator(t, TensorElement3.one(2))
    with pytest.raises(UsageError):
        commutator(t, TensorElement.one(3))


@st.composite
def _kind_and_two_keys(draw):
    kind = draw(st.sampled_from(list(_KEYS)))
    return kind, draw(_KEYS[kind]), draw(_KEYS[kind])


@given(_kind_and_two_keys())
@settings(max_examples=300, deadline=None)
def test_key_products_list_the_contraction_free_key_first(drawn):
    kind, k1, k2 = drawn
    pairs = list(kind.key_product(k1, k2))
    free = _free_key(k1, k2)
    assert pairs[0] == (free, (1, 0, 1))
    assert [k for k, _ in pairs].count(free) == 1
    if kind in (Polynomial, CommutingPair, CommutingTriple):
        assert key_commutator(kind.key_product, k1, k2) == []
    # the product itself uses the same key product
    one = Scalar.one(2)
    assert kind({k1: one}, 2) * kind({k2: one}, 2) == kind(
        {k: one.scale(c) for k, c in pairs}, 2
    )


def _adjoint_oracle(f: TensorElement, t: TensorElement) -> TensorElement:
    """exp(ad f)(t) as the nested series of two-product commutators."""
    acc = term = t
    for k in range(1, t.order + 1):
        term = f * term - term * f
        acc = acc + term.scale(Fraction(1, math.factorial(k)))
    return acc


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", LAMBDAS, ids=["sym", "1/2", "1/3"])
def test_t_adjoint_matches_the_nested_two_product_series(order, lam):
    ctx = TwistContext(order=order, lam=lam)
    case_i = realization("i", ctx)
    targets = [ctx.generator(name) for name in GENERATORS]
    targets += [mhat(i, case_i, ctx) for i in (1, 2, 3)]
    for f in (ctx.twist_exponent, ctx.r_exponent):
        for h in targets:
            delta0 = ctx._extend(h, ctx._primitive)
            assert t_adjoint(f, delta0) == _adjoint_oracle(f, delta0)


def _linear_power(e, n):
    acc = e.one(e.order)
    for _ in range(n):
        acc = acc * e
    return acc


@st.composite
def _element_and_exponent(draw):
    kind = draw(st.sampled_from([AlgebraElement, TensorElement, Polynomial]))
    order = draw(st.integers(1, 4))
    lam = draw(st.sampled_from(LAMBDAS))
    e = draw(_elements(kind, order, lam, max_terms=2))
    return e, draw(st.integers(0, 6))


@given(_element_and_exponent())
@settings(max_examples=100, deadline=None)
def test_power_by_squaring_matches_the_linear_loop(drawn):
    e, n = drawn
    assert e**n == _linear_power(e, n)
    # with every coefficient at a0-grade >= 1 the powers truncate to zero
    graded = e.scale(Scalar.a0(e.order))
    assert graded**n == _linear_power(graded, n)


"""Differential test of the sparse coefficient ring against the dense
layered ring it replaced (`ring_oracle.py`, a verbatim copy of the old
`kappatwist.scalars`).

Each case builds the same random value in both rings and requires the
same exact result, and the same rendered bytes, from every operation.
"""

from fractions import Fraction

import ring_oracle as old
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist import scalars as new

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
gaussian_parts = st.tuples(rationals, rationals)


@st.composite
def scalar_specs(draw, order=None):
    """(order, [(a0 grade, lam degree, re, im), ...]) with zeros included."""
    n = draw(st.integers(1, 6)) if order is None else order
    entries = draw(
        st.lists(
            st.tuples(st.integers(0, n), st.integers(0, 3), rationals, rationals),
            max_size=6,
        )
    )
    return n, entries


def build(ring, spec):
    n, entries = spec
    grades = [{} for _ in range(n + 1)]
    for k, deg, re, im in entries:
        grades[k][deg] = ring.GaussianRational(re, im)
    return ring.Scalar([ring.LambdaPoly(g) for g in grades], n)


def dense(s):
    """Ring-independent form: {(a0 grade, lam degree): (re, im)}."""
    return {
        (k, deg): (g.re, g.im)
        for k, poly in enumerate(s.components)
        for deg, g in poly.c.items()
    }


def same(a, b):
    assert dense(a) == dense(b)
    assert new.scalar_str(a) == old.scalar_str(b)


@st.composite
def scalar_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(scalar_specs(n)), draw(scalar_specs(n))


@given(scalar_pairs())
@settings(max_examples=150, deadline=None)
def test_binary_operations(pair):
    sa, sb = pair
    a, b = build(new, sa), build(new, sb)
    oa, ob = build(old, sa), build(old, sb)
    same(a, oa)
    same(a + b, oa + ob)
    same(a - b, oa - ob)
    same(a * b, oa * ob)
    assert (a == b) == (oa == ob)
    assert a == build(new, sa)


@given(scalar_specs(), gaussian_parts, rationals)
@settings(max_examples=150, deadline=None)
def test_unary_operations(spec, factor, value):
    s, o = build(new, spec), build(old, spec)
    n = spec[0]
    same(-s, -o)
    same(s.scale(new.GaussianRational(*factor)), o.scale(old.GaussianRational(*factor)))
    same(s.scale(factor[0]), o.scale(factor[0]))
    for k in range(n + 1):
        same(s.grade_part(k), o.grade_part(k))
    same(s.a0_limit(), o.a0_limit())
    assert s.min_grade() == o.min_grade()
    assert s.lambda_degree() == o.lambda_degree()
    assert s.is_zero() == o.is_zero()
    same(s.substitute_lambda(value), o.substitute_lambda(value))
    assert repr(s) == repr(o)


@given(scalar_specs(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_numeric_coefficient(spec, grade):
    s, o = build(new, spec), build(old, spec)
    if grade > spec[0]:
        assert not s.numeric_coefficient(grade)
        return
    poly = o.components[grade]
    if poly.degree() > 0:
        try:
            s.numeric_coefficient(grade)
        except new.UsageError:
            return
        raise AssertionError("lam at a numeric grade was not rejected")
    got = s.numeric_coefficient(grade)
    want = poly.constant_term()
    assert (got.re, got.im) == (want.re, want.im)


@given(scalar_specs())
@settings(max_examples=100, deadline=None)
def test_divide_by_a0(spec):
    s, o = build(new, spec), build(old, spec)
    n = spec[0]
    if o.components[0]:
        try:
            s.divide_by_a0()
        except new.UsageError:
            return
        raise AssertionError("a0-division of an ungraded value was not rejected")
    same(s.divide_by_a0(), old.Scalar(o.components[1:] + (old.LP_ZERO,), n))


@given(gaussian_parts, gaussian_parts, st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
def test_gaussian_rationals(pa, pb, power):
    a, b = new.GaussianRational(*pa), new.GaussianRational(*pb)
    oa, ob = old.GaussianRational(*pa), old.GaussianRational(*pb)

    def agree(x, y):
        assert (x.re, x.im) == (y.re, y.im)
        assert str(x) == str(y)

    agree(a, oa)
    agree(a * b, oa * ob)
    agree(a + b, oa + ob)
    agree(a - b, oa - ob)
    agree(a.conjugate(), oa.conjugate())
    if oa:
        agree(a.inverse(), oa.inverse())
        agree(a**power, oa**power)
        agree(b / a, ob / oa)
    elif power >= 0:
        agree(a**power, oa**power)


@given(st.integers(0, 6), st.lists(st.tuples(st.integers(0, 3), rationals), max_size=3))
@settings(max_examples=60, deadline=None)
def test_series(order, lam_terms):
    c = {deg: v for deg, v in lam_terms}
    nc = new.LambdaPoly({d: new.GaussianRational(v) for d, v in c.items()})
    oc = old.LambdaPoly({d: old.GaussianRational(v) for d, v in c.items()})
    ns = new.series_exp_linear(nc, order)
    os_ = old.series_exp_linear(oc, order)
    assert dense_series(ns) == dense_series(os_)
    nu, ou = new.OneVarSeries.linear(nc, order), old.OneVarSeries.linear(oc, order)
    assert dense_series(new.series_exp(nu) * ns) == dense_series(old.series_exp(ou) * os_)
    assert dense_series(ns - nu) == dense_series(os_ - ou)


def dense_series(s):
    return {
        (k, deg): (g.re, g.im)
        for k, poly in enumerate(s.coeffs)
        for deg, g in poly.c.items()
    }

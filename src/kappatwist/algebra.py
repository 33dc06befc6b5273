"""Heisenberg phase-space algebra in PBW normal form.

Generators are four coordinates x0..x3 and four momenta p0..p3 with
[p_mu, x_nu] = -i eta_{mu nu}, eta = diag(-,+,+,+).  Elements are finite
sums of normal-ordered monomials x^alpha p^beta (all x left of all p) with
Scalar coefficients.  The polynomial algebra of the coordinates alone acts
as the module the full algebra operates on via `act`.  Products and `act`
both apply the commutator through `_reorder_1d`, and monomial products
give their coefficients as packed `scalars` triples.

`commutator(a, b)` is the product's walk over the pairs of terms with
`key_commutator` in place of the key product, instead of forming both
products.  For two keys, k1*k2 and k2*k1 share their contraction-free
term (x^(a1+a2) p^(b1+b2) in each leg, coefficient 1); the coefficients
are central, so that term cancels exactly in a*b - b*a.  The commutator
leaves it out, and a pair that contracts in neither order costs nothing.

`SparseElement` is the one container behind these elements, the
coordinate polynomials and the two- and three-leg tensors of `tensor`: an
immutable {key: Scalar} dict at one truncation order, with all arithmetic
and the rendering shared, and only the product and the text of keys left
to each subclass.
`power_series` is the one truncated power-series loop over any of them
(exponentials, the boost profile functions, the adjoint action).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from .scalars import (
    DomainError,
    Scalar,
    Triple,
    UsageError,
    as_lambda_poly,
    as_scalar,
    scalar_str,
    sum_str,
    term_str,
    triple_mul,
)

ETA = (-1, 1, 1, 1)
DIM = 4

Exponents = tuple[int, int, int, int]
ZERO_EXP: Exponents = (0, 0, 0, 0)
_ONE: Triple = (1, 0, 1)


class Monomial(NamedTuple):
    """Normal-ordered monomial x^alpha p^beta."""

    alpha: Exponents
    beta: Exponents

    def x_degree(self) -> int:
        return sum(self.alpha)

    def __str__(self):
        return monomial_str(self)


UNIT_MONOMIAL = Monomial(ZERO_EXP, ZERO_EXP)


# Process-wide: a few hundred distinct monomials make up nearly every rendering.
@lru_cache(maxsize=4096)
def monomial_str(m: Monomial) -> str:
    factors = []
    for letter, exps in (("x", m.alpha), ("p", m.beta)):
        for mu, e in enumerate(exps):
            if e == 1:
                factors.append(f"{letter}{mu}")
            elif e > 1:
                factors.append(f"{letter}{mu}^{e}")
    return "*".join(factors) if factors else "1"


def _check_exponents(*exps) -> None:
    """The monomial constructors' check; the products assume it holds."""
    for e in exps:
        if type(e) is not tuple or len(e) != DIM or any(type(n) is not int or n < 0 for n in e):
            raise UsageError(f"exponents must be {DIM} non-negative integers, not {e!r}")


def _bump(exp: Exponents, mu: int, delta: int = 1) -> Exponents:
    lst = list(exp)
    lst[mu] += delta
    return tuple(lst)


@lru_cache(maxsize=1024)
def _reorder_1d(mu: int, b: int, a: int) -> tuple[tuple[int, int, Triple], ...]:
    """Normal-order p_mu^b x_mu^a; returns (x_exp, p_exp, coeff) entries,
    one per number k = 0..min(a, b) of contractions.  When a >= b the last
    entry is the momentum-free one, x_mu^(a-b)."""
    base = (0, -ETA[mu], 1)  # the commutator [p_mu, x_mu] = -i*eta
    out = []
    power = _ONE
    for k in range(0, min(a, b) + 1):
        if k:
            power = triple_mul(power, base)
        count = math.comb(b, k) * math.comb(a, k) * math.factorial(k)
        out.append((a - k, b - k, triple_mul(power, (count, 0, 1))))
    return tuple(out)


@lru_cache(maxsize=200_000)
def monomial_product(m1: Monomial, m2: Monomial) -> tuple[tuple[Monomial, Triple], ...]:
    """Product of two normal-ordered monomials, again in normal form.

    The first entry is the contraction-free one, Monomial(a1+a2, b1+b2)
    with coefficient (1, 0, 1): every `_reorder_1d` lists k = 0 first.
    `commutator` relies on that (see `SparseElement.key_product`)."""
    a1, b1 = m1
    a2, b2 = m2
    # Move p^b1 through x^a2; indices reorder independently (eta diagonal).
    partials: list[tuple[Exponents, Exponents, Triple]] = [(ZERO_EXP, ZERO_EXP, _ONE)]
    for mu in range(DIM):
        if b1[mu] == 0 or a2[mu] == 0:
            partials = [
                (_bump(xe, mu, a2[mu]), _bump(pe, mu, b1[mu]), c)
                for xe, pe, c in partials
            ]
            continue
        nxt = []
        for xa, pb, c in _reorder_1d(mu, b1[mu], a2[mu]):
            for xe, pe, c0 in partials:
                nxt.append((_bump(xe, mu, xa), _bump(pe, mu, pb), triple_mul(c0, c)))
        partials = nxt
    out = []
    for xe, pe, c in partials:
        alpha = tuple(x + y for x, y in zip(a1, xe))
        beta = tuple(x + y for x, y in zip(pe, b2))
        out.append((Monomial(alpha, beta), c))
    return tuple(out)


class SparseElement:
    """Immutable finite sum of basis keys with nonzero Scalar coefficients,
    all truncated at one order N.

    Subclasses differ only in their keys: each names the key of its unit
    (`UNIT_KEY`), the text of a key (`key_str`) and the product of two
    keys (`key_product`), which it also passes to `_product` from its own
    `__mul__`.

    `key_product(k1, k2)` lists the (key, coefficient) pairs of k1*k2, and
    its first pair is always the contraction-free term with coefficient
    (1, 0, 1).  That term is the same for k2*k1, which is what lets
    `commutator` drop it.
    """

    __slots__ = ("terms", "order")

    UNIT_KEY: object = None
    key_str: Callable[[object], str]
    key_product: Callable[[object, object], Sequence[tuple[object, Triple]]]

    def __init__(self, terms: Mapping[object, Scalar], order: int):
        clean = {k: s for k, s in terms.items() if not s.is_zero()}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, order: int):
        return cls({}, order)

    @classmethod
    def one(cls, order: int):
        return cls({cls.UNIT_KEY: Scalar.one(order)}, order)

    def _check(self, other: "SparseElement"):
        if self.order != other.order:
            raise UsageError("mixing elements of different truncation orders")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, s in other.terms.items():
            cur = out.get(k)
            out[k] = s if cur is None else cur + s
        return self.__class__(out, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.__class__({k: -s for k, s in self.terms.items()}, self.order)

    def _product(self, other, key_product: Callable):
        """self * other; `key_product(k1, k2)` gives the (key, coefficient)
        pairs of the product of two basis keys.  A pair of keys whose list
        is empty costs no coefficient product (see `commutator`)."""
        if other.__class__ is not self.__class__:
            return self.__rmul__(other)
        self._check(other)
        order = self.order
        # A pair whose lowest a0 grades add up above the order truncates to
        # zero, so the right factor is walked by grade and the walk stops
        # there.
        right = sorted(
            ((s.min_grade(), k, s) for k, s in other.terms.items()),
            key=itemgetter(0),
        )
        out: dict = {}
        for k1, s1 in self.terms.items():
            room = order - s1.min_grade()
            for g2, k2, s2 in right:
                if g2 > room:
                    break
                terms = key_product(k1, k2)
                if not terms:
                    continue
                s = s1 * s2
                for k, c in terms:
                    contrib = s.scale(c)
                    cur = out.get(k)
                    out[k] = contrib if cur is None else cur + contrib
        return self.__class__(out, order)

    def __rmul__(self, other):
        """A coefficient (see `scale`) times self; coefficients are central."""
        factor = as_scalar(other, self.order)
        return NotImplemented if factor is None else self.scale(factor)

    def scale(self, factor):
        """self * factor, for a Scalar, a LambdaPoly or an exact number."""
        s = as_scalar(factor, self.order)
        if s is None:
            raise UsageError(f"cannot scale by {factor!r}: not an exact coefficient")
        return self.__class__({k: c * s for k, c in self.terms.items()}, self.order)

    def __pow__(self, n: int):
        """self^n by repeated squaring.  A running power that truncates to
        zero makes the result zero, so the loop ends there: a nilpotent
        element takes a few products whatever the exponent."""
        if n < 0:
            raise UsageError("negative powers are not defined")
        acc = None
        square = self
        while n:
            if n & 1:
                acc = square if acc is None else acc * square
                if acc.is_zero():
                    return acc
            n >>= 1
            if n:
                square = square * square
                if square.is_zero():
                    return square
        return self.one(self.order) if acc is None else acc

    def min_grade(self) -> int | None:
        """Lowest a0 power over all coefficients, or None for zero."""
        return min((s.min_grade() for s in self.terms.values()), default=None)

    def grade_part(self, k: int):
        return self.__class__(
            {key: s.grade_part(k) for key, s in self.terms.items()}, self.order
        )

    def at_order(self, order: int):
        """The same element truncated at `order` (see `Scalar.at_order`)."""
        return self.__class__(
            {k: s.at_order(order) for k, s in self.terms.items()}, order
        )

    def coefficient(self, key) -> Scalar:
        return self.terms.get(key, Scalar.zero(self.order))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=itemgetter(0))

    def __str__(self):
        """Grammar-compatible rendering, terms in key order."""
        return sum_str(
            term_str(scalar_str(s), self.key_str(k)) for k, s in self.sorted_terms()
        )

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r}, N={self.order})"


class AlgebraElement(SparseElement):
    """Finite Scalar-linear combination of normal-ordered monomials."""

    __slots__ = ()

    UNIT_KEY = UNIT_MONOMIAL
    key_str = staticmethod(monomial_str)

    @staticmethod
    def key_product(m1: Monomial, m2: Monomial):
        # looks `monomial_product` up at call time, so that a tracer that
        # replaces it on this module (perfbench/layers.py) also counts the
        # calls of `commutator`
        return monomial_product(m1, m2)

    def __mul__(self, other):
        return self._product(other, monomial_product)

    @staticmethod
    def monomial(m: Monomial, order: int, coeff=None) -> "AlgebraElement":
        _check_exponents(*m)
        unit = AlgebraElement({m: Scalar.one(order)}, order)
        return unit if coeff is None else unit.scale(coeff)


def x(mu: int, order: int) -> AlgebraElement:
    if not 0 <= mu < DIM:
        raise UsageError(f"index {mu} out of range")
    return AlgebraElement({Monomial(_bump(ZERO_EXP, mu), ZERO_EXP): Scalar.one(order)}, order)


def p(mu: int, order: int) -> AlgebraElement:
    if not 0 <= mu < DIM:
        raise UsageError(f"index {mu} out of range")
    return AlgebraElement({Monomial(ZERO_EXP, _bump(ZERO_EXP, mu)): Scalar.one(order)}, order)


def dilatation(order: int) -> AlgebraElement:
    """S = x_k p_k summed over the spatial indices."""
    terms = {}
    for k in range(1, DIM):
        e = _bump(ZERO_EXP, k)
        terms[Monomial(e, e)] = Scalar.one(order)
    return AlgebraElement(terms, order)


def time_translation(order: int) -> AlgebraElement:
    """A = a0 * p0 (the lower-index contraction -a.p with a = (a0,0,0,0))."""
    return AlgebraElement({Monomial(ZERO_EXP, _bump(ZERO_EXP, 0)): Scalar.a0(order)}, order)


def key_commutator(key_product: Callable, k1, k2) -> list:
    """The (key, coefficient) pairs of k1*k2 - k2*k1 for two basis keys,
    without the contraction-free term that both products list first and
    that cancels; empty for keys that contract in neither order."""
    ab = key_product(k1, k2)
    ba = key_product(k2, k1)
    return [*ab[1:], *[(k, (-re, -im, d)) for k, (re, im, d) in ba[1:]]]


def commutator(a: SparseElement, b: SparseElement) -> SparseElement:
    """a * b - b * a, for two elements of one container type: the
    product's walk over the pairs of terms, with `key_commutator` for the
    key product.

    Coefficients are central, so a pair of terms s1*k1 and s2*k2
    contributes s1*s2 * (k1*k2 - k2*k1), and the contraction-free term of
    the two key products cancels; `key_commutator` leaves it out.  A pair
    that contracts in neither order costs no coefficient product, and for
    the commutative containers every pair is such a pair."""
    if b.__class__ is not a.__class__:
        raise UsageError(
            f"commutator of a {type(a).__name__} and a {type(b).__name__}"
        )
    return a._product(b, partial(key_commutator, a.key_product))


def power_series(a: SparseElement, coeffs, start=None, step=None):
    """sum_k coeffs[k] * t_k, truncated: t_0 = start (the unit by default),
    t_k = step(t_(k-1)) (t_(k-1) * a by default).

    Every term of `a` must carry at least one power of a0, so each step
    raises the grade; the sum stops at the first t_k that truncates to zero.
    """
    g = a.min_grade()
    if g is not None and g < 1:
        raise DomainError("a power series needs its argument at a0-grade >= 1")
    term = a.one(a.order) if start is None else start
    acc = term.zero(term.order)
    for k, c in enumerate(coeffs):
        if k:
            term = term * a if step is None else step(term)
            if term.is_zero():
                break
        if c:
            acc = acc + (term if c == 1 else term.scale(c))
    return acc


def exp_coeffs(order: int) -> list[Fraction]:
    """1/k! for k = 0..order."""
    return [Fraction(1, math.factorial(k)) for k in range(order + 1)]


def graded_exp(a: AlgebraElement) -> AlgebraElement:
    """exp of an element whose every term carries at least one power of a0."""
    return power_series(a, exp_coeffs(a.order))


# Process-wide, not per context: a request that builds a fresh context
# reuses the powers that earlier contexts built.
@lru_cache(maxsize=1024)
def z_power(exponent, order: int) -> AlgebraElement:
    """Z^c = exp(c*A) for a lam-polynomial constant c."""
    cp = as_lambda_poly(exponent)
    return graded_exp(time_translation(order).scale(Scalar.from_value(cp, order)))


def _exponent_sum(e1: Exponents, e2: Exponents):
    """The key product of a commutative container: only the
    contraction-free term."""
    return ((tuple(a + b for a, b in zip(e1, e2)), _ONE),)


class Polynomial(SparseElement):
    """Element of the commutative coordinate algebra (functions of x)."""

    __slots__ = ()

    UNIT_KEY = ZERO_EXP

    @staticmethod
    def key_str(exps: Exponents) -> str:
        return monomial_str(Monomial(exps, ZERO_EXP))

    key_product = staticmethod(_exponent_sum)

    def __mul__(self, other):
        return self._product(other, _exponent_sum)

    @staticmethod
    def x_monomial(exps: Exponents, order: int, coeff=None) -> "Polynomial":
        _check_exponents(exps)
        unit = Polynomial({exps: Scalar.one(order)}, order)
        return unit if coeff is None else unit.scale(coeff)


def act(h: AlgebraElement, f: Polynomial) -> Polynomial:
    """Module action: x_mu multiplies, p_mu differentiates as -i d/dx^mu.

    p^b x^a acting on the unit leaves the momentum-free term of its normal
    form, so the derivatives are read off `_reorder_1d`."""
    if h.order != f.order:
        raise UsageError("operator and argument truncation orders differ")
    order = f.order
    out: dict[Exponents, Scalar] = {}
    for mono, s in h.terms.items():
        for e, fs in f.terms.items():
            coeff = _ONE
            exps = list(e)
            for mu, b in enumerate(mono.beta):
                if b:
                    xa, pb, c = _reorder_1d(mu, b, exps[mu])[-1]
                    if pb:  # more derivatives than powers of x_mu
                        break
                    coeff = triple_mul(coeff, c)
                    exps[mu] = xa
            else:
                key = tuple(a + b for a, b in zip(mono.alpha, exps))
                contrib = (s * fs).scale(coeff)
                cur = out.get(key)
                out[key] = contrib if cur is None else cur + contrib
    return Polynomial(out, order)

"""Heisenberg phase-space algebra in PBW normal form.

Generators are four coordinates x0..x3 and four momenta p0..p3 with
[p_mu, x_nu] = -i eta_{mu nu}, eta = diag(-,+,+,+).  Elements are finite
sums of normal-ordered monomials x^alpha p^beta (all x left of all p) with
Scalar coefficients.  The polynomial algebra of the coordinates alone acts
as the module the full algebra operates on via `act`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .scalars import (
    DomainError,
    GR_I,
    GR_ONE,
    GaussianRational,
    LambdaPoly,
    OneVarSeries,
    Scalar,
    UsageError,
    as_lambda_poly,
    scalar_str,
)

ETA = (-1, 1, 1, 1)
DIM = 4

Exponents = tuple[int, int, int, int]
ZERO_EXP: Exponents = (0, 0, 0, 0)


class Monomial(NamedTuple):
    """Normal-ordered monomial x^alpha p^beta."""

    alpha: Exponents
    beta: Exponents

    def degree(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    def x_degree(self) -> int:
        return sum(self.alpha)

    def p_degree(self) -> int:
        return sum(self.beta)

    def __str__(self):
        return monomial_str(self)


UNIT_MONOMIAL = Monomial(ZERO_EXP, ZERO_EXP)


def monomial_str(m: Monomial) -> str:
    factors = []
    for letter, exps in (("x", m.alpha), ("p", m.beta)):
        for mu, e in enumerate(exps):
            if e == 1:
                factors.append(f"{letter}{mu}")
            elif e > 1:
                factors.append(f"{letter}{mu}^{e}")
    return "*".join(factors) if factors else "1"


def _bump(exp: Exponents, mu: int, delta: int = 1) -> Exponents:
    lst = list(exp)
    lst[mu] += delta
    return tuple(lst)


@lru_cache(maxsize=None)
def _reorder_1d(mu: int, b: int, a: int) -> tuple[tuple[int, int, GaussianRational], ...]:
    """Normal-order p_mu^b x_mu^a; returns (x_exp, p_exp, coeff) triples."""
    eta = ETA[mu]
    base = GaussianRational(0, -eta)  # the commutator [p_mu, x_mu] = -i*eta
    out = []
    coeff = GR_ONE
    for k in range(0, min(a, b) + 1):
        if k:
            coeff = coeff * base
        c = coeff * (math.comb(b, k) * math.comb(a, k) * math.factorial(k))
        out.append((a - k, b - k, c))
    return tuple(out)


@lru_cache(maxsize=200_000)
def monomial_product(m1: Monomial, m2: Monomial) -> tuple[tuple[Monomial, GaussianRational], ...]:
    """Product of two normal-ordered monomials, again in normal form."""
    a1, b1 = m1
    a2, b2 = m2
    # Move p^b1 through x^a2; indices reorder independently (eta diagonal).
    partials: list[tuple[Exponents, Exponents, GaussianRational]] = [
        (ZERO_EXP, ZERO_EXP, GR_ONE)
    ]
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
                nxt.append((_bump(xe, mu, xa), _bump(pe, mu, pb), c0 * c))
        partials = nxt
    out = []
    for xe, pe, c in partials:
        alpha = tuple(x + y for x, y in zip(a1, xe))
        beta = tuple(x + y for x, y in zip(pe, b2))
        out.append((Monomial(alpha, beta), c))
    return tuple(out)


class AlgebraElement:
    """Finite Scalar-linear combination of normal-ordered monomials."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[Monomial, Scalar], order: int):
        clean = {m: s for m, s in terms.items() if not s.is_zero()}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @staticmethod
    def zero(order: int) -> "AlgebraElement":
        return AlgebraElement({}, order)

    @staticmethod
    def one(order: int) -> "AlgebraElement":
        return AlgebraElement({UNIT_MONOMIAL: Scalar.one(order)}, order)

    @staticmethod
    def monomial(m: Monomial, order: int, coeff=None) -> "AlgebraElement":
        s = coeff if isinstance(coeff, Scalar) else Scalar.from_value(
            1 if coeff is None else coeff, order
        )
        return AlgebraElement({m: s}, order)

    def _check(self, other: "AlgebraElement"):
        if self.order != other.order:
            raise UsageError("mixing elements of different truncation orders")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, s in other.terms.items():
            cur = out.get(m)
            out[m] = s if cur is None else cur + s
        return AlgebraElement(out, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement({m: -s for m, s in self.terms.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, LambdaPoly, Scalar)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, Scalar] = {}
        for m1, s1 in self.terms.items():
            for m2, s2 in other.terms.items():
                s = s1 * s2
                if s.is_zero():
                    continue
                for m, c in monomial_product(m1, m2):
                    contrib = s.scale(c)
                    cur = out.get(m)
                    out[m] = contrib if cur is None else cur + contrib
        return AlgebraElement(out, self.order)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, LambdaPoly, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "AlgebraElement":
        if isinstance(factor, Scalar):
            return AlgebraElement(
                {m: s * factor for m, s in self.terms.items()}, self.order
            )
        return AlgebraElement(
            {m: s * factor for m, s in self.terms.items()}, self.order
        )

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative powers are not defined")
        acc = AlgebraElement.one(self.order)
        for _ in range(n):
            acc = acc * self
        return acc

    def min_grade(self) -> int | None:
        grades = [s.min_grade() for s in self.terms.values()]
        grades = [g for g in grades if g is not None]
        return min(grades) if grades else None

    def grade_part(self, k: int) -> "AlgebraElement":
        return AlgebraElement(
            {m: s.grade_part(k) for m, s in self.terms.items()}, self.order
        )

    def a0_limit(self) -> "AlgebraElement":
        return AlgebraElement(
            {m: s.a0_limit() for m, s in self.terms.items()}, self.order
        )

    def substitute_lambda(self, value) -> "AlgebraElement":
        return AlgebraElement(
            {m: s.substitute_lambda(value) for m, s in self.terms.items()}, self.order
        )

    def max_x_degree(self) -> int:
        return max((m.x_degree() for m in self.terms), default=0)

    def coefficient(self, m: Monomial) -> Scalar:
        return self.terms.get(m, Scalar.zero(self.order))

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        return element_str(self)

    def __repr__(self):
        return f"AlgebraElement({element_str(self)!r}, N={self.order})"


def element_str(e: AlgebraElement) -> str:
    if e.is_zero():
        return "0"
    pieces = []
    for m, s in e.sorted_terms():
        stext = scalar_str(s)
        mtext = monomial_str(m)
        if mtext == "1":
            body = stext if _is_atomic(stext) else f"({stext})"
        elif stext == "1":
            body = mtext
        elif stext == "-1":
            body = "-" + mtext
        elif _is_atomic(stext):
            body = f"{stext}*{mtext}"
        else:
            body = f"({stext})*{mtext}"
        pieces.append(body)
    text = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            text += " - " + piece[1:]
        else:
            text += " + " + piece
    return text


def _is_atomic(text: str) -> bool:
    return " " not in text


def x(mu: int, order: int) -> AlgebraElement:
    if not 0 <= mu < DIM:
        raise UsageError(f"index {mu} out of range")
    return AlgebraElement.monomial(Monomial(_bump(ZERO_EXP, mu), ZERO_EXP), order)


def p(mu: int, order: int) -> AlgebraElement:
    if not 0 <= mu < DIM:
        raise UsageError(f"index {mu} out of range")
    return AlgebraElement.monomial(Monomial(ZERO_EXP, _bump(ZERO_EXP, mu)), order)


def dilatation(order: int) -> AlgebraElement:
    """S = x_k p_k summed over the spatial indices."""
    terms = {}
    for k in range(1, DIM):
        e = _bump(ZERO_EXP, k)
        terms[Monomial(e, e)] = Scalar.one(order)
    return AlgebraElement(terms, order)


def time_translation(order: int) -> AlgebraElement:
    """A = a0 * p0 (the lower-index contraction -a.p with a = (a0,0,0,0))."""
    return AlgebraElement.monomial(
        Monomial(ZERO_EXP, (1, 0, 0, 0)), order, Scalar.a0(order)
    )


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


def graded_exp(a: AlgebraElement) -> AlgebraElement:
    """exp of an element whose every term carries at least one power of a0."""
    g = a.min_grade()
    if g is not None and g < 1:
        raise DomainError("graded_exp needs every term at a0-grade >= 1")
    acc = AlgebraElement.one(a.order)
    power = AlgebraElement.one(a.order)
    for n in range(1, a.order + 1):
        power = power * a
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, math.factorial(n)))
    return acc


def apply_series(series: OneVarSeries, at: AlgebraElement) -> AlgebraElement:
    """Substitute u := at into a truncated series; `at` must be a0-graded."""
    if series.order != at.order:
        raise UsageError("series and element truncation orders differ")
    g = at.min_grade()
    if g is not None and g < 1:
        raise DomainError("apply_series needs the argument at a0-grade >= 1")
    acc = AlgebraElement.zero(at.order)
    power = AlgebraElement.one(at.order)
    for k, coeff in enumerate(series.coeffs):
        if k:
            power = power * at
            if power.is_zero():
                break
        if coeff:
            acc = acc + power.scale(Scalar.from_value(coeff, at.order))
    return acc


_Z_CACHE: dict[tuple, AlgebraElement] = {}


def z_power(exponent, order: int) -> AlgebraElement:
    """Z^c = exp(c*A) for a lam-polynomial constant c."""
    cp = as_lambda_poly(exponent)
    key = (cp, order)
    cached = _Z_CACHE.get(key)
    if cached is None:
        cached = graded_exp(time_translation(order).scale(Scalar.from_value(cp, order)))
        _Z_CACHE[key] = cached
    return cached


class Polynomial:
    """Element of the commutative coordinate algebra (functions of x)."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[Exponents, Scalar], order: int):
        clean = {e: s for e, s in terms.items() if not s.is_zero()}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero(order: int) -> "Polynomial":
        return Polynomial({}, order)

    @staticmethod
    def one(order: int) -> "Polynomial":
        return Polynomial({ZERO_EXP: Scalar.one(order)}, order)

    @staticmethod
    def x_monomial(exps: Exponents, order: int, coeff=None) -> "Polynomial":
        s = coeff if isinstance(coeff, Scalar) else Scalar.from_value(
            1 if coeff is None else coeff, order
        )
        return Polynomial({exps: s}, order)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for e, s in other.terms.items():
            cur = out.get(e)
            out[e] = s if cur is None else cur + s
        return Polynomial(out, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial({e: -s for e, s in self.terms.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            return Polynomial(
                {e: s * other for e, s in self.terms.items()}, self.order
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Exponents, Scalar] = {}
        for e1, s1 in self.terms.items():
            for e2, s2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = s1 * s2
                cur = out.get(e)
                out[e] = s if cur is None else cur + s
        return Polynomial(out, self.order)

    __rmul__ = __mul__

    def to_element(self) -> AlgebraElement:
        return AlgebraElement(
            {Monomial(e, ZERO_EXP): s for e, s in self.terms.items()}, self.order
        )

    def __str__(self):
        return element_str(self.to_element())

    def __repr__(self):
        return f"Polynomial({str(self)!r}, N={self.order})"


def act(h: AlgebraElement, f: Polynomial) -> Polynomial:
    """Module action: x_mu multiplies, p_mu differentiates as -i d/dx^mu."""
    if h.order != f.order:
        raise UsageError("operator and argument truncation orders differ")
    order = f.order
    out: dict[Exponents, Scalar] = {}
    for mono, s in h.terms.items():
        for e, fs in f.terms.items():
            coeff = GR_ONE
            exps = e
            ok = True
            for mu in range(DIM):
                b = mono.beta[mu]
                if not b:
                    continue
                if exps[mu] < b:
                    ok = False
                    break
                fall = 1
                for j in range(b):
                    fall *= exps[mu] - j
                # each derivative contributes -i * eta_{mu mu}
                coeff = coeff * (GaussianRational(0, -ETA[mu]) ** b * fall)
                exps = _bump(exps, mu, -b)
            if not ok or not coeff:
                continue
            exps = tuple(a + b for a, b in zip(mono.alpha, exps))
            contrib = s * fs * coeff
            cur = out.get(exps)
            out[exps] = contrib if cur is None else cur + contrib
    return Polynomial(out, order)

"""Tensor squares and cubes of the phase-space algebra.

Provides componentwise products, the leg flip tau0, the multiplication map
m0, graded exponentials / adjoint conjugation, and canonicalization modulo
the three exchange-relation sets (undeformed R0 and the two deformed sets R
and Rtilde).  The canonical representative of a class has no coordinate
generators in the left tensor leg.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .algebra import (
    AlgebraElement,
    Monomial,
    UNIT_MONOMIAL,
    ZERO_EXP,
    _bump,
    dilatation,
    element_str,
    monomial_product,
    monomial_str,
    x,
    z_power,
)
from .scalars import (
    DomainError,
    GaussianRational,
    GR_ONE,
    LambdaPoly,
    LP_LAM,
    LP_ONE,
    Scalar,
    UsageError,
    scalar_str,
)

TensorKey = tuple[Monomial, Monomial]

# Safety valve for the rewriting loop; generous relative to any truncation.
MAX_REWRITE_STEPS = 2_000_000


class TensorElement:
    """Finite Scalar-linear combination of monomial tensor pairs."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[TensorKey, Scalar], order: int):
        clean = {k: s for k, s in terms.items() if not s.is_zero()}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    @staticmethod
    def zero(order: int) -> "TensorElement":
        return TensorElement({}, order)

    @staticmethod
    def one(order: int) -> "TensorElement":
        return TensorElement(
            {(UNIT_MONOMIAL, UNIT_MONOMIAL): Scalar.one(order)}, order
        )

    def _check(self, other: "TensorElement"):
        if self.order != other.order:
            raise UsageError("mixing tensors of different truncation orders")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, s in other.terms.items():
            cur = out.get(k)
            out[k] = s if cur is None else cur + s
        return TensorElement(out, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement({k: -s for k, s in self.terms.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, LambdaPoly, Scalar)):
            return self.scale(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        out: dict[TensorKey, Scalar] = {}
        for (l1, r1), s1 in self.terms.items():
            for (l2, r2), s2 in other.terms.items():
                s = s1 * s2
                if s.is_zero():
                    continue
                for ml, cl in monomial_product(l1, l2):
                    for mr, cr in monomial_product(r1, r2):
                        contrib = s.scale(cl * cr)
                        key = (ml, mr)
                        cur = out.get(key)
                        out[key] = contrib if cur is None else cur + contrib
        return TensorElement(out, self.order)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, LambdaPoly, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "TensorElement":
        return TensorElement(
            {k: s * factor for k, s in self.terms.items()}, self.order
        )

    def min_grade(self) -> int | None:
        grades = [s.min_grade() for s in self.terms.values()]
        grades = [g for g in grades if g is not None]
        return min(grades) if grades else None

    def grade_part(self, k: int) -> "TensorElement":
        return TensorElement(
            {key: s.grade_part(k) for key, s in self.terms.items()}, self.order
        )

    def a0_limit(self) -> "TensorElement":
        return TensorElement(
            {k: s.a0_limit() for k, s in self.terms.items()}, self.order
        )

    def substitute_lambda(self, value) -> "TensorElement":
        return TensorElement(
            {k: s.substitute_lambda(value) for k, s in self.terms.items()}, self.order
        )

    def coefficient(self, key: TensorKey) -> Scalar:
        return self.terms.get(key, Scalar.zero(self.order))

    def sorted_terms(self) -> list[tuple[TensorKey, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        return tensor_str(self)

    def __repr__(self):
        return f"TensorElement({tensor_str(self)!r}, N={self.order})"


def tensor_str(t: TensorElement) -> str:
    if t.is_zero():
        return "0"
    pieces = []
    for (ml, mr), s in t.sorted_terms():
        stext = scalar_str(s)
        body = f"{monomial_str(ml)} ox {monomial_str(mr)}"
        if stext == "1":
            piece = body
        elif stext == "-1":
            piece = f"-{body}"
        elif " " in stext:
            piece = f"({stext})*{body}"
        else:
            piece = f"{stext}*{body}"
        pieces.append(piece)
    text = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            text += " - " + piece[1:]
        else:
            text += " + " + piece
    return text


def tensor(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    if a.order != b.order:
        raise UsageError("legs have different truncation orders")
    out: dict[TensorKey, Scalar] = {}
    for m1, s1 in a.terms.items():
        for m2, s2 in b.terms.items():
            s = s1 * s2
            if not s.is_zero():
                out[(m1, m2)] = s
    return TensorElement(out, a.order)


def t_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    return a * b


def t_commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    return a * b - b * a


def tau0(t: TensorElement) -> TensorElement:
    """Leg swap; an involutive algebra map of the tensor square."""
    return TensorElement(
        {(r, l): s for (l, r), s in t.terms.items()}, t.order
    )


def m0(t: TensorElement) -> AlgebraElement:
    """Multiplication map: u (x) v -> u*v in normal form."""
    out: dict[Monomial, Scalar] = {}
    for (l, r), s in t.terms.items():
        for m, c in monomial_product(l, r):
            contrib = s.scale(c)
            cur = out.get(m)
            out[m] = contrib if cur is None else cur + contrib
    return AlgebraElement(out, t.order)


def t_exp(a: TensorElement) -> TensorElement:
    g = a.min_grade()
    if g is not None and g < 1:
        raise DomainError("t_exp needs every term at a0-grade >= 1")
    acc = TensorElement.one(a.order)
    power = TensorElement.one(a.order)
    for n in range(1, a.order + 1):
        power = power * a
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, math.factorial(n)))
    return acc


def t_adjoint(conjugator: TensorElement, target: TensorElement) -> TensorElement:
    """exp(ad conjugator) applied to target, truncated by the a0 grading."""
    g = conjugator.min_grade()
    if g is not None and g < 1:
        raise DomainError("t_adjoint needs the conjugator at a0-grade >= 1")
    acc = target
    nested = target
    for n in range(1, target.order + 1):
        nested = t_commutator(conjugator, nested)
        if nested.is_zero():
            break
        acc = acc + nested.scale(Fraction(1, math.factorial(n)))
    return acc


class RelationSet:
    """One of the exchange-relation sets R0, R, Rtilde.

    Each relation rewrites x_mu (x) 1 into a combination whose left leg is
    either coordinate-free or carries a strictly higher a0 grade, so
    left-to-right rewriting terminates under truncation.
    """

    __slots__ = ("tag", "lam", "order", "_replacements")

    def __init__(self, tag: str, order: int, lam=None):
        if tag not in ("R0", "R", "Rtilde"):
            raise UsageError(f"unknown relation set {tag!r}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "order", order)
        object.__setattr__(
            self, "lam", None if lam is None else Fraction(lam)
        )
        object.__setattr__(self, "_replacements", {})

    def __setattr__(self, name, value):
        raise AttributeError("RelationSet is immutable")

    def __repr__(self):
        lam = "sym" if self.lam is None else str(self.lam)
        return f"RelationSet({self.tag}, N={self.order}, lam={lam})"

    def _lam_poly(self) -> LambdaPoly:
        return LP_LAM if self.lam is None else LambdaPoly.const(self.lam)

    def replacement(self, mu: int) -> TensorElement:
        """Canonical substitute for x_mu (x) 1."""
        cached = self._replacements.get(mu)
        if cached is not None:
            return cached
        n = self.order
        lam = self._lam_poly()
        one = LP_ONE
        if self.tag == "R0":
            out = tensor(AlgebraElement.one(n), x(mu, n))
        elif mu != 0:
            if self.tag == "R":
                # x_i (x) 1 = Z^(lam-1) (x) x_i Z^(-lam)
                out = tensor(z_power(lam - one, n), x(mu, n) * z_power(-lam, n))
            else:
                # x_i (x) 1 = Z^lam (x) x_i Z^(1-lam)
                out = tensor(z_power(lam, n), x(mu, n) * z_power(one - lam, n))
        else:
            S = dilatation(n)
            unit = AlgebraElement.one(n)
            a0 = Scalar.a0(n)
            if self.tag == "R":
                # x_0 (x) 1 = 1 (x) x_0 - a0((1-lam) 1 (x) S + lam S (x) 1)
                out = (
                    tensor(unit, x(0, n))
                    - tensor(unit, S).scale(a0 * (one - lam))
                    - tensor(S, unit).scale(a0 * lam)
                )
            else:
                # x_0 (x) 1 = 1 (x) x_0 + a0 lam 1 (x) S + a0 (1-lam) S (x) 1
                out = (
                    tensor(unit, x(0, n))
                    + tensor(unit, S).scale(a0 * lam)
                    + tensor(S, unit).scale(a0 * (one - lam))
                )
        self._replacements[mu] = out
        return out


def _peel_smallest_x(m: Monomial) -> tuple[int, Monomial]:
    """Split off the lexicographically smallest coordinate generator."""
    for mu, e in enumerate(m.alpha):
        if e:
            return mu, Monomial(_bump(m.alpha, mu, -1), m.beta)
    raise ValueError("no coordinate generator to peel")


def canonicalize(t: TensorElement, rel: RelationSet) -> TensorElement:
    """Rewrite until the left leg of every term is coordinate-free."""
    if t.order != rel.order:
        raise UsageError("tensor and relation set truncation orders differ")
    done: dict[TensorKey, Scalar] = {}
    work = dict(t.terms)
    steps = 0
    while work:
        key, s = work.popitem()
        ml, mr = key
        if s.is_zero():
            continue
        if ml.x_degree() == 0:
            cur = done.get(key)
            done[key] = s if cur is None else cur + s
            continue
        steps += 1
        if steps > MAX_REWRITE_STEPS:
            raise RuntimeError("rewrite step bound exceeded; termination bug")
        mu, rest = _peel_smallest_x(ml)
        produced = rel.replacement(mu) * TensorElement({(rest, mr): s}, t.order)
        for k2, s2 in produced.terms.items():
            cur = work.get(k2)
            work[k2] = s2 if cur is None else cur + s2
    return TensorElement(done, t.order)


def equal_mod(a: TensorElement, b: TensorElement, rel: RelationSet) -> bool:
    return canonicalize(a - b, rel).is_zero()


TensorKey3 = tuple[Monomial, Monomial, Monomial]


class TensorElement3:
    """Triple tensors; just enough structure for the cocycle check."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[TensorKey3, Scalar], order: int):
        clean = {k: s for k, s in terms.items() if not s.is_zero()}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement3 is immutable")

    @staticmethod
    def zero(order: int) -> "TensorElement3":
        return TensorElement3({}, order)

    @staticmethod
    def one(order: int) -> "TensorElement3":
        return TensorElement3(
            {(UNIT_MONOMIAL, UNIT_MONOMIAL, UNIT_MONOMIAL): Scalar.one(order)}, order
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement3):
            return NotImplemented
        if self.order != other.order:
            raise UsageError("mixing tensors of different truncation orders")
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, TensorElement3):
            return NotImplemented
        out = dict(self.terms)
        for k, s in other.terms.items():
            cur = out.get(k)
            out[k] = s if cur is None else cur + s
        return TensorElement3(out, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement3({k: -s for k, s in self.terms.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, LambdaPoly, Scalar)):
            return TensorElement3(
                {k: s * other for k, s in self.terms.items()}, self.order
            )
        if not isinstance(other, TensorElement3):
            return NotImplemented
        out: dict[TensorKey3, Scalar] = {}
        for k1, s1 in self.terms.items():
            for k2, s2 in other.terms.items():
                s = s1 * s2
                if s.is_zero():
                    continue
                for m0_, c0 in monomial_product(k1[0], k2[0]):
                    for m1_, c1 in monomial_product(k1[1], k2[1]):
                        for m2_, c2 in monomial_product(k1[2], k2[2]):
                            contrib = s.scale(c0 * c1 * c2)
                            key = (m0_, m1_, m2_)
                            cur = out.get(key)
                            out[key] = contrib if cur is None else cur + contrib
        return TensorElement3(out, self.order)

    __rmul__ = __mul__

    def min_grade(self) -> int | None:
        grades = [s.min_grade() for s in self.terms.values()]
        grades = [g for g in grades if g is not None]
        return min(grades) if grades else None

    def __repr__(self):
        return f"TensorElement3(<{len(self.terms)} terms>, N={self.order})"


def tensor3(a: AlgebraElement, b: AlgebraElement, c: AlgebraElement) -> TensorElement3:
    out: dict[TensorKey3, Scalar] = {}
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


def t3_exp(a: TensorElement3) -> TensorElement3:
    g = a.min_grade()
    if g is not None and g < 1:
        raise DomainError("t3_exp needs every term at a0-grade >= 1")
    acc = TensorElement3.one(a.order)
    power = TensorElement3.one(a.order)
    for n in range(1, a.order + 1):
        power = power * a
        if power.is_zero():
            break
        acc = acc + power * Fraction(1, math.factorial(n))
    return acc


def embed_left(t: TensorElement) -> TensorElement3:
    """u (x) v -> u (x) v (x) 1."""
    return TensorElement3(
        {(l, r, UNIT_MONOMIAL): s for (l, r), s in t.terms.items()}, t.order
    )


def embed_right(t: TensorElement) -> TensorElement3:
    """u (x) v -> 1 (x) u (x) v."""
    return TensorElement3(
        {(UNIT_MONOMIAL, l, r): s for (l, r), s in t.terms.items()}, t.order
    )

"""Tensor squares and cubes of the phase-space algebra.

`TensorElement` and `TensorElement3` are `SparseElement` containers keyed
by pairs and triples of monomials, multiplied leg by leg.  This module
also provides the leg flip tau0, the multiplication map m0, graded
exponentials and adjoint conjugation (through `power_series`), and
canonicalization modulo the three exchange-relation sets (undeformed R0
and the two deformed sets R and Rtilde).  The canonical representative of
a class has no coordinate generators in the left tensor leg.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    AlgebraElement,
    Monomial,
    SparseElement,
    UNIT_MONOMIAL,
    _bump,
    dilatation,
    exp_coeffs,
    monomial_product,
    monomial_str,
    power_series,
    x,
    z_power,
)
from .scalars import (
    DomainError,
    LambdaPoly,
    LP_LAM,
    LP_ONE,
    Scalar,
    UsageError,
    scalar_str,
    sum_str,
    term_str,
)

TensorKey = tuple[Monomial, Monomial]

# Safety valve for the rewriting loop; generous relative to any truncation.
MAX_REWRITE_STEPS = 2_000_000


class TensorElement(SparseElement):
    """Finite Scalar-linear combination of monomial tensor pairs."""

    __slots__ = ()

    UNIT_KEY = (UNIT_MONOMIAL, UNIT_MONOMIAL)

    def __mul__(self, other):
        return self._product(other, _pair_product)

    def __str__(self):
        return tensor_str(self)

    def __repr__(self):
        return f"TensorElement({tensor_str(self)!r}, N={self.order})"


def _pair_product(k1: TensorKey, k2: TensorKey):
    (l1, r1), (l2, r2) = k1, k2
    return [
        ((ml, mr), cl * cr)
        for ml, cl in monomial_product(l1, l2)
        for mr, cr in monomial_product(r1, r2)
    ]


def tensor_str(t: TensorElement) -> str:
    return sum_str(
        term_str(scalar_str(s), f"{monomial_str(ml)} ox {monomial_str(mr)}")
        for (ml, mr), s in t.sorted_terms()
    )


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
    return power_series(a, exp_coeffs(a.order))


def t_adjoint(conjugator: TensorElement, target: TensorElement) -> TensorElement:
    """exp(ad conjugator) applied to target, truncated by the a0 grading."""
    return power_series(
        conjugator,
        exp_coeffs(target.order),
        start=target,
        step=lambda t: t_commutator(conjugator, t),
    )


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
            raise DomainError(
                f"canonicalization exceeded {MAX_REWRITE_STEPS} rewrite steps"
            )
        mu, rest = _peel_smallest_x(ml)
        produced = rel.replacement(mu) * TensorElement({(rest, mr): s}, t.order)
        for k2, s2 in produced.terms.items():
            cur = work.get(k2)
            work[k2] = s2 if cur is None else cur + s2
    return TensorElement(done, t.order)


def equal_mod(a: TensorElement, b: TensorElement, rel: RelationSet) -> bool:
    return canonicalize(a - b, rel).is_zero()


TensorKey3 = tuple[Monomial, Monomial, Monomial]


class TensorElement3(SparseElement):
    """Triple tensors; just enough structure for the cocycle check."""

    __slots__ = ()

    UNIT_KEY = (UNIT_MONOMIAL, UNIT_MONOMIAL, UNIT_MONOMIAL)

    def __mul__(self, other):
        return self._product(other, _triple_product)

    def __repr__(self):
        return f"TensorElement3(<{len(self.terms)} terms>, N={self.order})"


def _triple_product(k1: TensorKey3, k2: TensorKey3):
    (a1, b1, c1), (a2, b2, c2) = k1, k2
    return [
        ((ma, mb, mc), ca * cb * cc)
        for ma, ca in monomial_product(a1, a2)
        for mb, cb in monomial_product(b1, b2)
        for mc, cc in monomial_product(c1, c2)
    ]


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
    return power_series(a, exp_coeffs(a.order))


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

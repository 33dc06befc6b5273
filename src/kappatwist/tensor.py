"""Tensor squares and cubes of the phase-space algebra.

`TensorElement` and `TensorElement3` are `SparseElement` containers keyed
by pairs and triples of monomials, multiplied leg by leg and built by the
one outer product `tensor(*legs)`.  The tensor cube is the target of
`hopf`'s `expand` and, with `embed` (the tensor square inside the cube)
and `t3_exp`, the independent route that tests check the cocycle
condition against; `hopf` checks it in C[S, A]^(x)3.  This module also
provides the leg flip tau0, graded exponentials and adjoint conjugation
(through `power_series`),
canonicalization modulo a `RelationSet` of exchange relations, and the
canonical exponential, which keeps every power of its series in canonical
form.  It is purely structural: the relations of the twist family
(undeformed R0 and the deformed R and Rtilde) are written in `hopf`.  The
canonical representative of a class has no coordinate generators in the
left tensor leg.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .algebra import (
    AlgebraElement,
    Monomial,
    SparseElement,
    UNIT_MONOMIAL,
    _bump,
    commutator,
    exp_coeffs,
    monomial_product,
    monomial_str,
    power_series,
)
from .scalars import DomainError, Scalar, UsageError, triple_mul

TensorKey = tuple[Monomial, Monomial]

# Safety valve for the rewriting loop; generous relative to any truncation.
MAX_REWRITE_STEPS = 2_000_000


def _legs_str(key: tuple[Monomial, ...]) -> str:
    return " ox ".join(map(monomial_str, key))


def _pair_product(k1: TensorKey, k2: TensorKey):
    """Leg by leg; the contraction-free pair comes first, because it does
    in each `monomial_product`."""
    (l1, r1), (l2, r2) = k1, k2
    return [
        ((ml, mr), triple_mul(cl, cr))
        for ml, cl in monomial_product(l1, l2)
        for mr, cr in monomial_product(r1, r2)
    ]


class TensorElement(SparseElement):
    """Finite Scalar-linear combination of monomial tensor pairs."""

    __slots__ = ()

    UNIT_KEY = (UNIT_MONOMIAL, UNIT_MONOMIAL)
    key_str = staticmethod(_legs_str)
    key_product = staticmethod(_pair_product)

    def __mul__(self, other):
        return self._product(other, _pair_product)


def tensor(*legs: AlgebraElement) -> SparseElement:
    """a (x) b as a TensorElement, or a (x) b (x) c as a TensorElement3."""
    if len(legs) not in (2, 3):
        raise UsageError(f"a tensor has two or three legs, not {len(legs)}")
    a, b, *rest = legs
    if a.order != b.order or (rest and rest[0].order != a.order):
        raise UsageError("legs have different truncation orders")
    out = {
        (m1, m2): s
        for m1, s1 in a.terms.items()
        for m2, s2 in b.terms.items()
        if not (s := s1 * s2).is_zero()
    }
    if not rest:
        return TensorElement(out, a.order)
    (c,) = rest
    return TensorElement3(
        {
            (m1, m2, m3): s
            for (m1, m2), s12 in out.items()
            for m3, s3 in c.terms.items()
            if not (s := s12 * s3).is_zero()
        },
        a.order,
    )


def tau0(t: TensorElement) -> TensorElement:
    """Leg swap; an involutive algebra map of the tensor square."""
    return TensorElement(
        {(r, l): s for (l, r), s in t.terms.items()}, t.order
    )


def t_exp(a: TensorElement) -> TensorElement:
    return power_series(a, exp_coeffs(a.order))


def t_adjoint(conjugator: TensorElement, target: TensorElement) -> TensorElement:
    """exp(ad conjugator) applied to target, truncated by the a0 grading:
    sum_k ad^k(target)/k! with ad(t) = [conjugator, t].  Each step is one
    `commutator`, a single walk over the pairs of terms that skips the
    contraction-free term conjugator*t and t*conjugator share."""
    return power_series(
        conjugator,
        exp_coeffs(target.order),
        start=target,
        step=lambda t: commutator(conjugator, t),
    )


class RelationSet(NamedTuple):
    """One exchange-relation set (R0, R or Rtilde) at truncation order N.

    `replacement(mu)` is the canonical substitute for x_mu (x) 1: its left
    leg is either coordinate-free or carries a strictly higher a0 grade, so
    left-to-right rewriting terminates under truncation.  The relations
    themselves belong to the twist family and come from `hopf`.
    """

    tag: str
    order: int
    replacement: Callable[[int], TensorElement]


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


def canonical_exp(a: TensorElement, rel: RelationSet) -> TensorElement:
    """canonicalize(t_exp(a), rel), with every power a^n kept canonical.

    Each rewrite in `canonicalize` turns (x_mu rest) (x) m into
    replacement(mu) * (rest (x) m), so it subtracts an element of the right
    ideal spanned by (x_mu (x) 1 - replacement(mu)) * T; truncation in a0 is
    a quotient by a central ideal and changes nothing.  Hence
    canon(u * v) == canon(canon(u) * v) for every v, and
    canon(a^n) == canon(canon(a^(n-1)) * a), and a sum of canonical powers
    is canonical.  The argument needs the uncanonical factor on the right:
    it does not carry over to `t_adjoint`, whose nested commutators put
    uncanonical factors on the left.
    """
    return power_series(
        a, exp_coeffs(a.order), step=lambda t: canonicalize(t * a, rel)
    )


def equal_mod(a: TensorElement, b: TensorElement, rel: RelationSet) -> bool:
    return canonicalize(a - b, rel).is_zero()


TensorKey3 = tuple[Monomial, Monomial, Monomial]


def _triple_product(k1: TensorKey3, k2: TensorKey3):
    """Leg by leg, the contraction-free triple first."""
    (a1, b1, c1), (a2, b2, c2) = k1, k2
    return [
        ((ma, mb, mc), triple_mul(triple_mul(ca, cb), cc))
        for ma, ca in monomial_product(a1, a2)
        for mb, cb in monomial_product(b1, b2)
        for mc, cc in monomial_product(c1, c2)
    ]


class TensorElement3(SparseElement):
    """Finite Scalar-linear combination of monomial tensor triples."""

    __slots__ = ()

    UNIT_KEY = (UNIT_MONOMIAL, UNIT_MONOMIAL, UNIT_MONOMIAL)
    key_str = staticmethod(_legs_str)
    key_product = staticmethod(_triple_product)

    def __mul__(self, other):
        return self._product(other, _triple_product)


def t3_exp(a: TensorElement3) -> TensorElement3:
    return power_series(a, exp_coeffs(a.order))


def embed(t: TensorElement, at: int) -> TensorElement3:
    """Insert a unit leg at position `at` (0, 1 or 2): at=1 sends
    u (x) v to u (x) 1 (x) v."""
    return TensorElement3(
        {(*k[:at], UNIT_MONOMIAL, *k[at:]): s for k, s in t.terms.items()}, t.order
    )

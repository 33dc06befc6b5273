"""Tensor squares of the phase-space algebra.

`TensorElement` is the `SparseElement` container keyed by pairs of
monomials, multiplied leg by leg and built by the outer product
`tensor(a, b)`.  This module also provides the leg flip tau0, graded
exponentials and adjoint conjugation (through `power_series`),
canonicalization modulo a set of exchange relations, and the canonical
exponential, which keeps every power of its series in canonical form and
on orbit representatives: the permutations of the spatial axes fix its
exponent, so each power is kept folded (`fold`, one key per orbit) and the
sum is unfolded once at the end (`unfold`).  It is purely structural: the
relations of the twist family (undeformed R0 and the deformed R and
Rtilde) are the `RelationSet` values of `hopf`.  The canonical
representative of a class has no coordinate generators in the left
tensor leg.  `canonicalize` peels x0 in rounds, one product by the x0
rule per round, and moves the spatial coordinates x1..x3 of a left leg
across in closed form, with one tensor product per spatial degree.

A relation set `rel`, as `canonicalize`, `canonical_exp` and `equal_mod`
read it, has three parts:

* `rel.order`, its truncation order N.
* `rel.x0_rule()`, the canonical substitute for x0 (x) 1.  Its left legs,
  1 and S = x_k p_k, add no x0, so each round of `canonicalize` leaves
  every left leg it rewrites with one x0 fewer.
* `rel.shift(d)`, the group-like factor Z^(d*u) (x) Z^(d*v) with which a
  left leg of spatial degree d crosses.  The spatial rules are
  x_i (x) 1 = shift(1) * (1 (x) x_i) for i = 1, 2, 3, and
  shift(d) == shift(1)^d (Z commutes with x1..x3, and each shift(d) is a
  function of p0 on each leg).

Every relation set is equivariant under the permutations g of the spatial
axes, which act on x and p of both legs at once:
canonicalize(g.t) == g.canonicalize(t).  The twist treats the axes alike,
so g (x) g fixes the x0 rule and shift(d) and permutes the spatial rules,
and normal forms are unique.  `canonical_exp` relies on this.

`TensorElement3`, `_triple_product` and `t3_exp` (the tensor cube) have
no caller in the engine.  They stay because the benchmark harness hooks
`t3_exp` and `TensorElement3.__mul__`, and the tests' three-leg route for
the cocycle condition is built on them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from operator import add

from .algebra import (
    AlgebraElement,
    Monomial,
    SparseElement,
    UNIT_MONOMIAL,
    ZERO_EXP,
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
    """Leg by leg, each leg's product taken once; the contraction-free pair
    comes first, because it does in each `monomial_product`."""
    (l1, r1), (l2, r2) = k1, k2
    right = monomial_product(r1, r2)
    return [
        ((ml, mr), triple_mul(cl, cr))
        for ml, cl in monomial_product(l1, l2)
        for mr, cr in right
    ]


class TensorElement(SparseElement):
    """Finite Scalar-linear combination of monomial tensor pairs."""

    __slots__ = ()

    UNIT_KEY = (UNIT_MONOMIAL, UNIT_MONOMIAL)
    key_str = staticmethod(_legs_str)
    key_product = staticmethod(_pair_product)

    def __mul__(self, other):
        return self._product(other, _pair_product)


def tensor(a: AlgebraElement, b: AlgebraElement) -> TensorElement:
    """a (x) b."""
    if a.order != b.order:
        raise UsageError("legs have different truncation orders")
    return TensorElement(
        {
            (m1, m2): s
            for m1, s1 in a.terms.items()
            for m2, s2 in b.terms.items()
            if not (s := s1 * s2).is_zero()
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


def _add_into(acc: dict, key, s: Scalar) -> None:
    cur = acc.get(key)
    acc[key] = s if cur is None else cur + s


def canonicalize(t: TensorElement, rel) -> TensorElement:
    """Rewrite until the left leg of every term is coordinate-free.

    Each round walks the terms once and peels one x0 off every left leg
    with one; those terms, times the x0 rule in one product, are the next
    round's.  The rule's left legs 1 and S add no x0, so there are at most
    as many rounds as t's largest x0 degree.  A left leg x^alpha p^beta
    without x0, of spatial degree d > 0, is moved across in one closed
    form, the d rewrites through shift(1) * (1 (x) x_i) composed:

        canon(x^alpha p^beta (x) m) = shift(d) * (p^beta (x) x^alpha m),

    where x^alpha m only adds exponents and the left leg p^beta is already
    canonical.  Such terms are collected per d and multiplied by shift(d)
    once per d.  Rewriting in another order reaches the same normal form
    (Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978).
    Each x0 peel counts one step against MAX_REWRITE_STEPS and each
    closed-form move d, the number of rewrites it stands for.
    """
    if t.order != rel.order:
        raise UsageError("tensor and relation set truncation orders differ")
    done: dict[TensorKey, Scalar] = {}
    by_degree: dict[int, dict[TensorKey, Scalar]] = {}
    work = t.terms
    steps = 0
    while work:
        peeled: dict[TensorKey, Scalar] = {}
        for (ml, mr), s in work.items():
            d = ml.x_degree()
            if d == 0:
                _add_into(done, (ml, mr), s)
                continue
            x0 = ml.alpha[0]
            steps += 1 if x0 else d
            if steps > MAX_REWRITE_STEPS:
                raise DomainError(
                    f"canonicalization exceeded {MAX_REWRITE_STEPS} rewrite steps"
                )
            if x0:
                rest = Monomial(_bump(ml.alpha, 0, -1), ml.beta)
                _add_into(peeled, (rest, mr), s)
            else:
                moved = (
                    Monomial(ZERO_EXP, ml.beta),
                    Monomial(tuple(map(add, ml.alpha, mr.alpha)), mr.beta),
                )
                _add_into(by_degree.setdefault(d, {}), moved, s)
        work = (rel.x0_rule() * TensorElement(peeled, t.order)).terms if peeled else {}
    for d, bucket in by_degree.items():
        for k2, s2 in (rel.shift(d) * TensorElement(bucket, t.order)).terms.items():
            _add_into(done, k2, s2)
    return TensorElement(done, t.order)


def _columns(key: TensorKey):
    """The spatial columns (alpha_i, beta_i of the left leg, alpha_i,
    beta_i of the right leg) of a key, for i = 1, 2, 3."""
    ml, mr = key
    return zip(ml.alpha[1:], ml.beta[1:], mr.alpha[1:], mr.beta[1:])


def _with_columns(key: TensorKey, cols) -> TensorKey:
    """key with its spatial columns replaced by cols."""
    ml, mr = key
    la, lb, ra, rb = zip(*cols)
    return (
        Monomial((ml.alpha[0], *la), (ml.beta[0], *lb)),
        Monomial((mr.alpha[0], *ra), (mr.beta[0], *rb)),
    )


@lru_cache(maxsize=65536)
def orbit_representative(key: TensorKey) -> TensorKey:
    """The fixed representative of key's orbit under the permutations of
    the spatial axes 1..3, which act on x and p of both legs at once: such
    a permutation permutes the key's spatial columns, and the
    representative has them sorted."""
    return _with_columns(key, sorted(_columns(key)))


def fold(t: TensorElement) -> TensorElement:
    """Each key sent to its orbit representative, coefficients added."""
    out: dict[TensorKey, Scalar] = {}
    for key, s in t.terms.items():
        _add_into(out, orbit_representative(key), s)
    return TensorElement(out, t.order)


def unfold(t: TensorElement) -> TensorElement:
    """The average of t over the six permutations of the spatial axes:
    each key of a term's orbit O gets its coefficient times 1/|O|.

    For an invariant P, unfold(fold(P)) == P, and P is invariant exactly
    when unfold(P) == P."""
    out: dict[TensorKey, Scalar] = {}
    for key, s in t.terms.items():
        orbit = set(permutations(_columns(key)))
        share = s.scale(Fraction(1, len(orbit)))
        for cols in orbit:
            _add_into(out, _with_columns(key, cols), share)
    return TensorElement(out, t.order)


def canonical_exp(a: TensorElement, rel) -> TensorElement:
    """canonicalize(t_exp(a), rel), with every power a^n kept canonical
    and folded onto spatial-permutation orbits.

    Let rule_mu be the substitute for x_mu (x) 1: x0_rule() for mu = 0
    and shift(1) * (1 (x) x_i) for mu = i.  Each x0 peel in `canonicalize`
    turns (x0 rest) (x) m into rule_0 * (rest (x) m), one x0 fewer on the
    left, so it subtracts an element of the right ideal (x_mu (x) 1 - rule_mu) * T;
    truncation in a0 is a quotient by a central ideal and changes nothing.
    A closed-form move of a spatial degree-d left leg is d such rewrites by
    the spatial rules composed, so it subtracts an element of the same
    ideal.  Hence
    canon(u * v) == canon(canon(u) * v) for every v, and
    canon(a^n) == canon(canon(a^(n-1)) * a), and a sum of canonical powers
    is canonical.  The argument needs the uncanonical factor on the right:
    it does not carry over to `t_adjoint`, whose nested commutators put
    uncanonical factors on the left.

    The exponent must be invariant under the permutations g of the
    spatial axes (a `DomainError` otherwise); the R-matrix exponent and
    every sum of solved r_k are.  g (x) g is an algebra automorphism that
    permutes the spatial exchange rules and fixes the x0 rule, so
    canonicalize(g.t) == g.canonicalize(t) (module docstring).  For the
    invariant a, (g.k) * a == g.(k * a), so fold(canon(u * a)) depends
    on u only through fold(u), and fold(P_n) == fold(canon(fold(P_(n-1)) * a))
    for the canonical powers P_n.  The series is therefore built on orbit
    representatives, with about a fifth of the keys, and the invariant
    sum is recovered once at the end by `unfold`.  This is the orbit
    reduction of symmetry-adapted computation (Gatermann and Parrilo,
    "Symmetry groups, semidefinite programs, and sums of squares",
    J. Pure Appl. Algebra 192, 2004).
    """
    if unfold(a) != a:
        raise DomainError(
            "canonical exponential needs an exponent invariant under "
            "permutations of the spatial axes"
        )
    return unfold(
        power_series(
            a, exp_coeffs(a.order), step=lambda t: fold(canonicalize(t * a, rel))
        )
    )


def equal_mod(a: TensorElement, b: TensorElement, rel) -> bool:
    return canonicalize(a - b, rel).is_zero()


TensorKey3 = tuple[Monomial, Monomial, Monomial]


def _triple_product(k1: TensorKey3, k2: TensorKey3):
    """Leg by leg, each leg's product taken once; the contraction-free
    triple first."""
    (a1, b1, c1), (a2, b2, c2) = k1, k2
    middle, last = monomial_product(b1, b2), monomial_product(c1, c2)
    return [
        ((ma, mb, mc), triple_mul(triple_mul(ca, cb), cc))
        for ma, ca in monomial_product(a1, a2)
        for mb, cb in middle
        for mc, cc in last
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

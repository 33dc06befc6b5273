"""Twist family, deformed coproducts, universal R-matrix and star products.

A `TwistContext` fixes the truncation order and the twist parameter (symbolic
or a rational value).  The twist exponent is

    f = i*(lam * S (x) A - (1 - lam) * A (x) S),

with S = x_k p_k and A = a0*p0; its exponential deforms the undeformed
coproducts by conjugation.  The R-matrix exponent is rho = i*(A (x) S -
S (x) A).  This module is the one place that knows the twist family: the
exchange relations R0, R and Rtilde that `tensor.canonicalize` rewrites
with (`exchange_rule`), the twist exponent, and the powers Z^c.

Star products and the realization operator act with F^-1 or Ftilde^-1 in
closed form.  On a polynomial of spatial degree d (its degree in x1, x2,
x3), S acts as -i*d and A as i*a0 d/dx0, and [S, A] = 0.  So on
f_d (x) g_e the exponent of F^-1 is (1-lam)*e A (x) 1 - lam*d 1 (x) A, a
sum of two commuting terms that each carry a0, and F^-1 acts there as
Z^((1-lam)e) (x) Z^(-lam d) -- also under truncation, where exp(X + Y) =
exp(X) exp(Y) still holds for commuting X and Y.  Ftilde^-1 = tau0(F^-1)
acts as Z^(-lam e) (x) Z^((1-lam)d).

The twist is Abelian, so F, (Delta0 (x) id)F and (id (x) Delta0)F lie in
the commutative algebra C[S, A]^(x)n, where a product adds exponents.
`verify_cocycle` checks the cocycle condition there, in `CommutingTriple`.
The check loses no strength: `expand`, which sends the key (s, a) of a leg
to S^s p0^a, is an injective algebra map that commutes with Delta0 (S and
A are primitive), and the check first requires that the lifted exponent
and its exponential expand to `twist_exponent` and to the cached `twist()`.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .algebra import (
    AlgebraElement,
    DIM,
    Monomial,
    Polynomial,
    SparseElement,
    UNIT_MONOMIAL,
    ZERO_EXP,
    _bump,
    _exponent_sum,
    act,
    dilatation,
    exp_coeffs,
    p,
    power_series,
    time_translation,
    x,
    z_power,
)
from .scalars import (
    DomainError,
    LP_LAM,
    LP_ONE,
    GaussianRational,
    LambdaPoly,
    Scalar,
    UsageError,
    as_lambda_poly,
)
from .tensor import (
    RelationSet,
    TensorElement,
    TensorElement3,
    canonical_exp,
    canonicalize,
    t_adjoint,
    t_exp,
    tau0,
    tensor,
)


# The plain generators of the expression language: the coordinates x_mu,
# the momenta p_mu, A = a0*p0, S = x_k p_k and Z = exp(A).
GENERATORS = ("x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3", "A", "S", "Z")
COORDINATES, MOMENTA = GENERATORS[:DIM], GENERATORS[DIM : 2 * DIM]


@lru_cache(maxsize=1024)
def exchange_rule(tag: str, lam: LambdaPoly, order: int, mu: int) -> TensorElement:
    """Canonical substitute for x_mu (x) 1 in the relation set `tag`.

    R0 (x_mu (x) 1 = 1 (x) x_mu) is the undeformed set; R and Rtilde hold
    for the coproduct and the opposite coproduct of the twist with
    parameter `lam`.  Rtilde is R with lam -> 1 - lam and a0 -> -a0 (so
    Z^c -> Z^-c), which is how `sign` and `lt` enter below:

        R:      x_i (x) 1 = Z^(lam-1) (x) x_i Z^(-lam)
                x_0 (x) 1 = 1 (x) x_0 - a0((1-lam) 1 (x) S + lam S (x) 1)
        Rtilde: x_i (x) 1 = Z^lam (x) x_i Z^(1-lam)
                x_0 (x) 1 = 1 (x) x_0 + a0(lam 1 (x) S + (1-lam) S (x) 1)
    """
    n = order
    unit = AlgebraElement.one(n)
    if tag == "R0":
        return tensor(unit, x(mu, n))
    if tag == "R":
        sign, lt = 1, lam
    elif tag == "Rtilde":
        sign, lt = -1, LP_ONE - lam
    else:
        raise UsageError(f"unknown relation set {tag!r}")
    if mu != 0:
        left = z_power((lt - LP_ONE).scale(sign), n)
        return tensor(left, x(mu, n) * z_power(lt.scale(-sign), n))
    S = dilatation(n)
    a0 = Scalar.a0(n).scale(sign)
    return (
        tensor(unit, x(0, n))
        - tensor(unit, S).scale(a0 * (LP_ONE - lt))
        - tensor(S, unit).scale(a0 * lt)
    )


def relation_set(tag: str, lam: LambdaPoly, order: int) -> RelationSet:
    """The relation set `tag` ("R0", "R" or "Rtilde") of the twist with
    parameter `lam`, at truncation `order`."""
    # the rule holds values only, not a context: a reference back would keep
    # every context alive until a garbage-collection pass
    return RelationSet(tag, order, partial(exchange_rule, tag, lam, order))


def _commuting_legs_str(key: tuple[int, ...]) -> str:
    return " ox ".join(
        "*".join(f"{g}^{e}" if e > 1 else g for g, e in (("S", s), ("p0", a)) if e)
        or "1"
        for s, a in zip(key[::2], key[1::2])
    )


class _Commuting(SparseElement):
    """Element of C[S, A]^(x)n, keyed by the exponents (s1, a1, ..., sn, an)
    of S^s1 p0^a1 (x) ... (x) S^sn p0^an; the a0^a of A^a sits in the
    coefficient.  S and p0 commute, so a product adds exponents."""

    __slots__ = ()

    key_str = staticmethod(_commuting_legs_str)
    key_product = staticmethod(_exponent_sum)

    def __mul__(self, other):
        return self._product(other, _exponent_sum)


class CommutingPair(_Commuting):
    __slots__ = ()
    UNIT_KEY = (0,) * 4


class CommutingTriple(_Commuting):
    __slots__ = ()
    UNIT_KEY = (0,) * 6


def _unit_leg(c: CommutingPair, at: int) -> CommutingTriple:
    """The key-level `embed`: a unit leg inserted at position `at`."""
    return CommutingTriple(
        {k[: 2 * at] + (0, 0) + k[2 * at :]: s for k, s in c.terms.items()}, c.order
    )


def _split_exponent(f: CommutingPair) -> tuple[CommutingTriple, CommutingTriple]:
    """(Delta0 (x) id)f and (id (x) Delta0)f for f with primitive legs:
    the first sends l (x) r to l (x) 1 (x) r + 1 (x) l (x) r, the second
    to l (x) r (x) 1 + l (x) 1 (x) r."""
    return _unit_leg(f, 1) + _unit_leg(f, 0), _unit_leg(f, 2) + _unit_leg(f, 1)


# x1 p1 and p0, the monomials of S (x) A and A (x) S that the lift reads
_X1P1 = Monomial((0, 1, 0, 0), (0, 1, 0, 0))
_P0 = Monomial(ZERO_EXP, (1, 0, 0, 0))


class TwistContext:
    """Shared state for one (lam, N) deformation setting."""

    def __init__(self, order: int = 4, lam=None):
        if not 1 <= order <= 6:
            raise UsageError("truncation order must be in 1..6")
        self.order = order
        # lam must be an exact rational; GaussianRational rejects anything else
        self.lam = None if lam is None else GaussianRational(lam).re
        self.lam_poly = LP_LAM if self.lam is None else LambdaPoly.const(self.lam)
        n = order
        self.lam_s = Scalar.from_value(self.lam_poly, n)
        self.one = AlgebraElement.one(n)
        self.S = dilatation(n)
        self.A = time_translation(n)
        i = Scalar.i(n)
        # twist exponent f = i(lam S (x) A - (1-lam) A (x) S)
        self.twist_exponent = tensor(self.S, self.A).scale(i * self.lam_s) - tensor(
            self.A, self.S
        ).scale(i * (Scalar.one(n) - self.lam_s))
        # R-matrix exponent rho = i(A (x) S - S (x) A)
        self.r_exponent = (
            tensor(self.A, self.S) - tensor(self.S, self.A)
        ).scale(i)
        self.R0, self.R, self.Rtilde = (
            relation_set(tag, self.lam_poly, n) for tag in ("R0", "R", "Rtilde")
        )
        self._cache: dict[str, object] = {}

    # -- basic elements -------------------------------------------------

    def z(self, exponent=1) -> AlgebraElement:
        """Z^c with c a rational or lam-polynomial exponent."""
        cp = as_lambda_poly(exponent)
        if self.lam is not None:
            cp = LambdaPoly.const(cp.eval(self.lam))
        return z_power(cp, self.order)

    def generator(self, name: str) -> AlgebraElement:
        """The plain generator `name`, one of GENERATORS."""
        if name not in GENERATORS:
            raise UsageError(f"unknown generator {name!r}")
        if name == "A":
            return self.A
        if name == "S":
            return self.S
        if name == "Z":
            return self.z(1)
        return (x if name in COORDINATES else p)(int(name[1]), self.order)

    def _cached(self, key, builder):
        val = self._cache.get(key)
        if val is None:
            val = builder()
            self._cache[key] = val
        return val

    # -- twist and R-matrix ---------------------------------------------

    def twist(self) -> TensorElement:
        return self._cached("F", lambda: t_exp(self.twist_exponent))

    def twist_inverse(self) -> TensorElement:
        return self._cached("Finv", lambda: t_exp(-self.twist_exponent))

    def twist_opposite(self) -> TensorElement:
        return self._cached("Ft", lambda: tau0(self.twist()))

    def twist_opposite_inverse(self) -> TensorElement:
        return self._cached("Ftinv", lambda: tau0(self.twist_inverse()))

    def rmatrix(self) -> TensorElement:
        return self._cached("Rmat", lambda: t_exp(self.r_exponent))

    def rmatrix_inverse(self) -> TensorElement:
        return self._cached("Rmatinv", lambda: t_exp(-self.r_exponent))

    def rmatrix_canonical(self) -> TensorElement:
        """R canonical mod Rtilde, the form the re-expansion matches."""
        return self._cached(
            "Rcanon", lambda: canonical_exp(self.r_exponent, self.Rtilde)
        )

    # -- coproducts ------------------------------------------------------

    def _extend(self, h: AlgebraElement, image) -> TensorElement:
        """Extend a map on the generators multiplicatively over h: each
        monomial x^alpha p^beta goes to the ordered product of the images
        `image(name)` of its generators (COORDINATES, then MOMENTA)."""
        n = self.order
        out = TensorElement.zero(n)
        for mono, s in h.terms.items():
            acc = TensorElement.one(n)
            for names, exps in ((COORDINATES, mono.alpha), (MOMENTA, mono.beta)):
                for name, e in zip(names, exps):
                    if e:
                        g = image(name)
                        for _ in range(e):
                            acc = acc * g
            out = out + acc.scale(s)
        return out

    def _primitive(self, name: str) -> TensorElement:
        """Undeformed coproduct of a generator: x (x) 1 for a coordinate
        (one representative of its class mod R0), p (x) 1 + 1 (x) p."""
        g = self.generator(name)
        if name in COORDINATES:
            return tensor(g, self.one)
        return tensor(g, self.one) + tensor(self.one, g)

    def coproduct0(self, h: AlgebraElement) -> TensorElement:
        """Undeformed coproduct, canonical mod R0."""
        return canonicalize(self._extend(h, self._primitive), self.R0)

    def _twisted(self, h: AlgebraElement) -> TensorElement:
        """F (Delta0 h) F^-1 = exp(ad f)(Delta0 h), not yet canonical."""
        return t_adjoint(self.twist_exponent, self._extend(h, self._primitive))

    def coproduct(self, h: AlgebraElement) -> TensorElement:
        """Deformed coproduct F Delta0 F^-1, canonical mod R."""
        return canonicalize(self._twisted(h), self.R)

    def coproduct_opposite(self, h: AlgebraElement) -> TensorElement:
        """Opposite coproduct tau0 Delta tau0, canonical mod Rtilde."""
        return canonicalize(tau0(self._twisted(h)), self.Rtilde)

    def generator_coproduct(self, name: str) -> TensorElement:
        """Cached canonical deformed coproduct of a single generator."""
        return self._cached(
            ("dgen", name), lambda: self.coproduct(self.generator(name))
        )

    def coproduct_hom(self, h: AlgebraElement) -> TensorElement:
        """Deformed coproduct assembled from generator coproducts.

        Uses the homomorphism property monomial by monomial; must agree with
        the twist-conjugation route modulo R.
        """
        return canonicalize(self._extend(h, self.generator_coproduct), self.R)

    def coproduct_by(self, h: AlgebraElement, method: str) -> TensorElement:
        """Deformed coproduct by twist conjugation ("twist") or from the
        generator coproducts ("hom")."""
        if method == "twist":
            return self.coproduct(h)
        if method == "hom":
            return self.coproduct_hom(h)
        raise UsageError("method must be 'twist' or 'hom'")

    def rmatrix_conjugate(self, h: AlgebraElement) -> TensorElement:
        """R (Delta h) R^-1, canonical mod Rtilde; equals the opposite coproduct."""
        return canonicalize(t_adjoint(self.r_exponent, self._twisted(h)), self.Rtilde)

    # -- twist axioms ----------------------------------------------------

    def _s_p0_power(self, s: int, a: int) -> AlgebraElement:
        """S^s p0^a, cached per context."""

        def build():
            if a:
                return self._s_p0_power(s, a - 1) * p(0, self.order)
            return self._s_p0_power(s - 1, 0) * self.S if s else self.one

        return self._cached(("Sp0", s, a), build)

    def expand(self, c: _Commuting) -> SparseElement:
        """The image of c in the tensor square or cube of the phase-space
        algebra: an injective algebra map, key (s, a) to S^s p0^a on each leg."""
        kind = TensorElement if len(c.UNIT_KEY) == 4 else TensorElement3
        out = kind.zero(c.order)
        for key, s in c.terms.items():
            legs = (self._s_p0_power(*e) for e in zip(key[::2], key[1::2]))
            out = out + tensor(*legs).scale(s)
        return out

    def _twist_lift(self) -> CommutingPair | None:
        """The twist exponent in C[S, A]^(x)2, read off its S (x) A and
        A (x) S coefficients; None if that does not give it back."""
        f = self.twist_exponent
        lift = CommutingPair(
            {
                (1, 0, 0, 1): f.coefficient((_X1P1, _P0)),
                (0, 1, 1, 0): f.coefficient((_P0, _X1P1)),
            },
            self.order,
        )
        return lift if self.expand(lift) == f else None

    def cocycle_exponents(self) -> tuple[CommutingTriple, CommutingTriple]:
        """(Delta0 (x) id)f and (id (x) Delta0)f for the twist exponent f,
        in C[S, A]^(x)3; S and A are primitive."""
        f = self._twist_lift()
        if f is None:
            raise DomainError("the twist exponent is not in C[S, A] (x) C[S, A]")
        return _split_exponent(f)

    def verify_cocycle(self) -> bool:
        """(F (x) 1)((Delta0 (x) id)F) == (1 (x) F)((id (x) Delta0)F), in
        C[S, A]^(x)3 (module docstring).  Fails unless the lifted F expands
        to the cached `twist()`."""
        f = self._twist_lift()
        if f is None:
            return False
        coeffs = exp_coeffs(self.order)
        F = power_series(f, coeffs)
        if self.expand(F) != self.twist():
            return False
        first, second = _split_exponent(f)
        lhs = _unit_leg(F, 2) * power_series(first, coeffs)
        return lhs == _unit_leg(F, 0) * power_series(second, coeffs)

    def verify_counit(self) -> bool:
        """(eps (x) id)F == 1 with eps the unit-coefficient projection."""
        n = self.order
        acc = AlgebraElement.zero(n)
        for (l, r), s in self.twist().terms.items():
            if l == UNIT_MONOMIAL:
                acc = acc + AlgebraElement.monomial(r, n, s)
        return acc == self.one

    # -- realization and star products -----------------------------------

    def realization_operator(self, mu: int, f: Polynomial) -> Polynomial:
        """f -> m0(F^-1 |> (x_mu (x) f)), by the closed-form action of F^-1."""
        if not 0 <= mu < DIM:
            raise UsageError(f"index {mu} out of range")
        self._check_orders(f)
        return self._closed_form_action(
            "F", Polynomial.x_monomial(_bump(ZERO_EXP, mu), self.order), f
        )

    def _check_orders(self, *args: Polynomial) -> None:
        if any(a.order != self.order for a in args):
            raise UsageError("argument and context truncation orders differ")

    def _closed_form_action(self, which: str, f: Polynomial, g: Polynomial) -> Polynomial:
        """m0(op |> (f (x) g)) for op = F^-1 ("F") or Ftilde^-1 ("Ftilde"):
        two Z-power shifts per pair of spatial degrees (module docstring)."""
        lam, rest = self.lam_poly, LP_ONE - self.lam_poly
        out = Polynomial.zero(self.order)
        g_parts = _spatial_parts(g)
        for d, f_d in _spatial_parts(f):
            for e, g_e in g_parts:
                if which == "F":
                    left, right = rest.scale(e), lam.scale(-d)
                else:
                    left, right = lam.scale(-e), rest.scale(d)
                out = out + act(self.z(left), f_d) * act(self.z(right), g_e)
        return out

    def xhat(self, mu: int) -> AlgebraElement:
        """Closed-form noncommutative coordinates of the twist family."""
        n = self.order
        if mu == 0:
            return x(0, n) - self.S.scale(Scalar.a0(n) * (Scalar.one(n) - self.lam_s))
        return x(mu, n) * self.z(-self.lam_poly)

    def star_product(self, f: Polynomial, g: Polynomial, which: str = "F") -> Polynomial:
        if which not in ("F", "Ftilde"):
            raise UsageError("star product flavor must be 'F' or 'Ftilde'")
        self._check_orders(f, g)
        return self._closed_form_action(which, f, g)


def _spatial_parts(f: Polynomial) -> list[tuple[int, Polynomial]]:
    """(d, f_d) for each spatial degree d of f, f_d the part of that degree."""
    parts: dict = {}
    for e, s in f.terms.items():
        parts.setdefault(sum(e[1:]), {})[e] = s
    return [(d, Polynomial(t, f.order)) for d, t in parts.items()]

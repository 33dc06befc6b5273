"""Twist family, deformed coproducts, universal R-matrix and star products.

A `TwistContext` fixes the truncation order and the twist parameter (symbolic
or a rational value).  The twist family is conjugation by exp(f), with
f = i(sigma S (x) A + tau A (x) S), S = x_k p_k and A = a0*p0.  This module
is the one place that knows it.  A relation set is the value
`RelationSet(sigma, tau, N)`: R = (lam, lam-1, N) for the twist
F = exp(i(lam S (x) A - (1-lam) A (x) S)), Rtilde = (lam-1, lam, N) for its
flip tau0(F), and R0 = (0, 0, N) for the undeformed relations.  The
exchange relations (`x0_rule`, and `shift` for d spatial coordinates at
once), the twist exponent, xhat_mu and the star products read the pair.
The R-matrix exponent is rho = i(A (x) S - S (x) A).

Star products act with F^-1 or Ftilde^-1 in closed form; the realization
of xhat_mu on f is the star product of x_mu with f.  On a polynomial of
spatial degree d (its degree in x1, x2, x3), S acts as -i*d and A as
i*a0 d/dx0, and [S, A] = 0.  So on f_d (x) g_e the exponent -f is
-tau*e A (x) 1 - sigma*d 1 (x) A, a sum of two commuting terms that each
carry a0, and exp(-f) acts there as Z^(-tau e) (x) Z^(-sigma d) -- also
under truncation, where exp(X + Y) = exp(X) exp(Y) still holds for
commuting X and Y: F^-1 with R's pair, Ftilde^-1 with Rtilde's.

The deformed coproducts use the same two actions, in closed form and
written straight into canonical form (`TwistContext._deformed`).  The
coproduct Delta h = F (Delta0 h) F^-1 is conjugation by exp(f) with R's
pair; its flip tau0(Delta h) is conjugation by tau0(F), with Rtilde's.

* Notation.  w(m) is the spatial x-degree of a monomial m minus its
  spatial p-degree; then S m = m (S - i w(m)).  A acts as a derivative,
  [A, m] = i a0 dm/dx0.  S (x) A and A (x) S commute.
* Undeformed coproduct mod R0: pure exponent arithmetic,
  canon_R0(Delta0(x^alpha p^beta)) =
  sum_(beta' <= beta) C(beta, beta') p^beta' (x) x^alpha p^(beta-beta').
* The two conjugations.  Ad(p^beta' (x) 1) = p^beta' (x) Z^(sigma w')
  with w' = w(p^beta'), and
  Ad(1 (x) v) = sum_n (-sigma a0)^n / n! S^n Z^(tau w(v)) (x) d^n v/dx0^n.
* Why the output is canonical.  Ad sends each R0 generator
  x_mu (x) 1 - 1 (x) x_mu into the right ideal of the R generators
  x_mu (x) 1 - rule_mu (to x0 (x) 1 - rule_0, and to
  (x_i (x) 1 - rule_i)(1 (x) Z^sigma)), so canon_rel o Ad depends only on
  the class mod R0.  Tensors whose left legs are coordinate-free are
  closed under products, and normal forms are unique, so
  canon(u v) = canon(u) v whenever v has coordinate-free left legs.  Hence

      Delta(x^alpha p^beta) = sum_(beta' <= beta, n <= alpha0)
          C(beta, beta') C(alpha0, n) (-sigma a0)^n C_n
          (Z^(tau w(v)) p^beta' (x) x^(alpha - n e0) p^(beta-beta') Z^(sigma w')),

  with v = x^alpha p^(beta-beta') and C_n = canon_rel(S^n (x) 1).
* Cost.  Every right-hand factor is an exponent shift of the terms of
  Z^u (x) Z^v (`z_pair`).  Grouped by n into Q_n, the result is
  sum_n C_n Q_n: no tensor product at all for an x0-free h, and at most
  deg_x0(h) products otherwise.  C_n is held process-wide
  (`RelationSet.dilatation_power`), as the exchange rules are, because
  coproduct requests each build a fresh context.

`coproduct0`, `coproduct_hom` and `rmatrix_conjugate` keep routes of their
own (`rmatrix_conjugate` the commutator series `_twisted`), so the checks
that compare them with `coproduct` and `coproduct_opposite` compare
independent computations.

`coproduct_hom` uses that Delta is an algebra map: it multiplies the
generator coproducts along each monomial's word (`_extend`).  The letters
of a word are x0..x3, then p1, p2, p3, and p0 last.  The momenta commute,
and so do their images (all their legs are functions of p), so the order
among them does not change the tensor; it sets the cost.  Delta p0 has 2
terms and Delta p_i has 2(N+1), and `_extend` forms each word prefix
once, so with p0 last the p_i factors are multiplied once per prefix and
every p0-depth of a boost adds only a two-term product (on the case-(i)
boost at N = 3, 28 products; p0 first would take 45).

The twist is Abelian, so F, (Delta0 (x) id)F and (id (x) Delta0)F lie in
the commutative algebra C[S, A]^(x)n, where a product adds exponents.
`verify_cocycle` checks the cocycle condition there, in `CommutingTriple`.
The check loses no strength: `expand`, which sends the key (s, a) of a leg
to S^s p0^a, is an injective algebra map that commutes with Delta0 (S and
A are primitive), and the check first requires that the lifted exponent
and its exponential expand to `twist_exponent` and to the cached `twist()`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from math import comb, prod
from operator import itemgetter, sub
from typing import NamedTuple

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
    LP_LAM,
    LP_ONE,
    LP_ZERO,
    GaussianRational,
    LambdaPoly,
    Scalar,
    UsageError,
    as_lambda_poly,
)
from .tensor import (
    TensorElement,
    TensorKey,
    _add_into,
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


# Process-wide, like z_power: a fresh context reuses the pairs of earlier ones.
@lru_cache(maxsize=1024)
def z_pair(u: LambdaPoly, v: LambdaPoly, order: int) -> TensorElement:
    """Z^u (x) Z^v."""
    return tensor(z_power(u, order), z_power(v, order))


class RelationSet(NamedTuple):
    """The exchange relations of conjugation by exp(i(sigma S (x) A +
    tau A (x) S)) at truncation `order` (module docstring).  A relation set
    is this value and nothing else: its rules are memoized process-wide,
    keyed by the value, because coproduct requests each build a fresh
    context, and they hold no reference back to a context."""

    sigma: LambdaPoly
    tau: LambdaPoly
    order: int

    @lru_cache(maxsize=1024)
    def x0_rule(self) -> TensorElement:
        """Canonical substitute for x0 (x) 1:

            x_0 (x) 1 = 1 (x) x_0 + a0(tau 1 (x) S - sigma S (x) 1), that is
            R:      x_0 (x) 1 = 1 (x) x_0 - a0((1-lam) 1 (x) S + lam S (x) 1)
            Rtilde: x_0 (x) 1 = 1 (x) x_0 + a0(lam 1 (x) S + (1-lam) S (x) 1)

        The spatial rules, x_i (x) 1 = Z^(lam-1) (x) x_i Z^(-lam) for R and
        Z^lam (x) x_i Z^(1-lam) for Rtilde, are `shift(1)` times
        1 (x) x_i, so their exponents are written once.  Its left legs 1 and
        S add no x0: a round of `canonicalize` leaves each left leg one x0
        fewer.
        """
        n = self.order
        unit = AlgebraElement.one(n)
        S = dilatation(n)
        a0 = Scalar.a0(n)
        return (
            tensor(unit, x(0, n))
            + tensor(unit, S).scale(a0 * self.tau)
            - tensor(S, unit).scale(a0 * self.sigma)
        )

    @lru_cache(maxsize=256)
    def shift(self, d: int) -> TensorElement:
        """Z^(d*tau) (x) Z^(-d*sigma), with which a left leg of spatial
        degree d crosses: x_i (x) 1 = (Z^tau (x) Z^-sigma)(1 (x) x_i), the
        unit for R0.  Z commutes with x1..x3, so d crossings multiply to
        this."""
        return z_pair(self.tau.scale(d), self.sigma.scale(-d), self.order)

    @lru_cache(maxsize=256)
    def dilatation_power(self, k: int) -> TensorElement:
        """C_k = canon(S^k (x) 1), the left factor of the coproduct terms
        with k x0-derivatives (`TwistContext._deformed`)."""
        unit = AlgebraElement.one(self.order)
        return canonicalize(tensor(dilatation(self.order) ** k, unit), self)


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
    """A unit leg inserted at position `at`: at=1 sends l (x) r to
    l (x) 1 (x) r."""
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
        # a float order fails deep in the first coproduct, and would share
        # its integer's entries in the relation sets' memos (3.0 == 3)
        if type(order) is not int:
            raise UsageError("truncation order must be an integer")
        if not 1 <= order <= 6:
            raise UsageError("truncation order must be in 1..6")
        self.order = order
        # lam must be an exact rational; GaussianRational rejects anything else
        self.lam = None if lam is None else GaussianRational(lam).re
        self.lam_poly = LP_LAM if self.lam is None else LambdaPoly.const(self.lam)
        n = order
        self.one = AlgebraElement.one(n)
        self.S = dilatation(n)
        self.A = time_translation(n)
        lam_less_1 = self.lam_poly - LP_ONE
        self.R0 = RelationSet(LP_ZERO, LP_ZERO, n)
        self.R = RelationSet(self.lam_poly, lam_less_1, n)
        self.Rtilde = RelationSet(lam_less_1, self.lam_poly, n)
        self._cache: dict[object, object] = {}

    # The two exponents are built on first read: coproduct and eval
    # requests never read them.

    @cached_property
    def twist_exponent(self) -> TensorElement:
        """f = i(sigma S (x) A + tau A (x) S) with R's pair."""
        i = Scalar.i(self.order)
        sigma, tau, _ = self.R
        return tensor(self.S, self.A).scale(i * sigma) + tensor(
            self.A, self.S
        ).scale(i * tau)

    @cached_property
    def r_exponent(self) -> TensorElement:
        """The R-matrix exponent rho = i(A (x) S - S (x) A)."""
        return (tensor(self.A, self.S) - tensor(self.S, self.A)).scale(
            Scalar.i(self.order)
        )

    # -- basic elements -------------------------------------------------

    def z(self, exponent=1) -> AlgebraElement:
        """Z^c with c a rational or lam-polynomial exponent.  At a rational
        lam, c is evaluated there, so that a caller's symbolic exponent does
        not leak into the rational context."""
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
        `image(name)` of its generators, in `_word`'s letter order: the
        coordinates, then p1, p2, p3, and p0 last.

        The momenta commute, and so do their images under `_primitive` and
        `generator_coproduct` (their legs hold only p), so any order of the
        momenta gives the same tensor.  p0 goes last because its image is
        the cheap one (2 terms, against 2(N+1) for p_i): the expensive
        p_i factors sit in the shared prefix, and each p0-depth of a word
        adds only a two-term product (x2 p1 p0^k is (x2 p1 p0^(k-1)) *
        image("p0"), with x2 p1 formed once).

        The monomials' words of generators are walked in sorted order, a
        depth-first walk of their prefix tree, and the images of the
        current word's prefixes are kept: each prefix is formed once, as
        the prefix one generator shorter times that generator's image.
        Only one chain of prefixes is held at a time: a memo of every
        prefix of a boost's words raised the peak memory of a coproduct
        request by a fifth."""
        words = sorted(
            ((_word(mono), s) for mono, s in h.terms.items()), key=itemgetter(0)
        )
        chain: list[TensorElement] = []  # images of the current word's prefixes
        previous: tuple[int, ...] = ()
        out: dict[TensorKey, Scalar] = {}
        for word, s in words:
            shared = 0
            for a, b in zip(previous, word):
                if a != b:
                    break
                shared += 1
            del chain[shared:]
            for j in word[shared:]:
                g = image(GENERATORS[j])
                chain.append(chain[-1] * g if chain else g)
            previous = word
            if not chain:
                _add_into(out, TensorElement.UNIT_KEY, s)
                continue
            for key, c in chain[-1].terms.items():
                _add_into(out, key, c * s)
        return TensorElement(out, self.order)

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
        """F (Delta0 h) F^-1 = exp(ad f)(Delta0 h), not yet canonical, by
        the commutator series.  Only `rmatrix_conjugate` takes this route,
        so that the check that it equals `coproduct_opposite` compares two
        independent computations."""
        return t_adjoint(self.twist_exponent, self._extend(h, self._primitive))

    def _deformed(self, h: AlgebraElement, rel: RelationSet) -> TensorElement:
        """canon(exp(ad f)(Delta0 h)) in the relation set `rel`, for its
        conjugation f = i(sigma S (x) A + tau A (x) S), in closed form
        (module docstring): every term is written canonical by exponent
        arithmetic, and the terms with k x0-derivatives, Q_k, are
        multiplied by C_k = canon(S^k (x) 1) in one product per k >= 1."""
        n = self.order
        sigma, tau, _ = rel
        step = Scalar.a0(n) * Scalar.from_value(-sigma, n)
        powers = [Scalar.one(n)]  # (-sigma*a0)^k
        parts: dict[int, dict[TensorKey, Scalar]] = {}
        for (alpha, beta), s in h.terms.items():
            spatial_x = sum(alpha[1:])
            for k in range(alpha[0] + 1):
                if k == len(powers):
                    powers.append(powers[-1] * step)
                s_k = (s * powers[k]).scale(comb(alpha[0], k))
                if s_k.is_zero():
                    break
                room = n - s_k.min_grade()
                alpha_k = _bump(alpha, 0, -k)
                q = parts.setdefault(k, {})
                for left in product(*(range(b + 1) for b in beta)):
                    right = tuple(map(sub, beta, left))
                    c = s_k.scale(prod(map(comb, beta, left)))
                    w_left = -sum(left[1:])
                    w_right = spatial_x - sum(right[1:])
                    shifts = z_pair(tau.scale(w_right), sigma.scale(w_left), n)
                    for (zl, zr), z in shifts.terms.items():
                        j, m = zl.beta[0], zr.beta[0]
                        if j + m <= room:
                            key = (
                                Monomial(ZERO_EXP, _bump(left, 0, j)),
                                Monomial(alpha_k, _bump(right, 0, m)),
                            )
                            _add_into(q, key, c * z)
        out = parts.pop(0, {})
        for k, q in parts.items():
            for key, c in (rel.dilatation_power(k) * TensorElement(q, n)).terms.items():
                _add_into(out, key, c)
        return TensorElement(out, n)

    def coproduct(self, h: AlgebraElement) -> TensorElement:
        """Deformed coproduct F (Delta0 h) F^-1, canonical mod R."""
        return self._deformed(h, self.R)

    def coproduct_opposite(self, h: AlgebraElement) -> TensorElement:
        """Opposite coproduct tau0(Delta h), canonical mod Rtilde: the
        conjugation of Delta0 h by tau0(F)."""
        return self._deformed(h, self.Rtilde)

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

    def expand(self, c: CommutingPair) -> TensorElement:
        """The image of c in the tensor square of the phase-space algebra:
        an injective algebra map, key (s, a) to S^s p0^a on each leg."""
        out = TensorElement.zero(c.order)
        for (s1, a1, s2, a2), s in c.terms.items():
            leg1, leg2 = self._s_p0_power(s1, a1), self._s_p0_power(s2, a2)
            out = out + tensor(leg1, leg2).scale(s)
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
        terms = self.twist().terms.items()
        unit_left = {r: s for (l, r), s in terms if l == UNIT_MONOMIAL}
        return AlgebraElement(unit_left, self.order) == self.one

    # -- coordinates and star products -----------------------------------

    def xhat(self, mu: int) -> AlgebraElement:
        """Closed-form coordinates, with R's pair: x0 + tau a0 S, x_i Z^-sigma."""
        n = self.order
        sigma, tau, _ = self.R
        if mu == 0:
            return x(0, n) + self.S.scale(Scalar.a0(n) * tau)
        return x(mu, n) * self.z(-sigma)

    def star_product(self, f: Polynomial, g: Polynomial, which: str = "F") -> Polynomial:
        """m0(op |> (f (x) g)) for op = F^-1 ("F") or Ftilde^-1 ("Ftilde"):
        two Z-power shifts per pair of spatial degrees (module docstring)."""
        rel = {"F": self.R, "Ftilde": self.Rtilde}.get(which)
        if rel is None:
            raise UsageError("star product flavor must be 'F' or 'Ftilde'")
        if f.order != self.order or g.order != self.order:
            raise UsageError("argument and context truncation orders differ")
        sigma, tau, _ = rel
        out = Polynomial.zero(self.order)
        g_parts = _spatial_parts(g)
        for d, f_d in _spatial_parts(f):
            for e, g_e in g_parts:
                left, right = self.z(tau.scale(-e)), self.z(sigma.scale(-d))
                out = out + act(left, f_d) * act(right, g_e)
        return out


# The letter order of `_word`: x0..x3, then p1, p2, p3, and p0 last.
_LETTERS = (*range(DIM), *range(DIM + 1, 2 * DIM), DIM)


def _word(mono: Monomial) -> tuple[int, ...]:
    """The indices into GENERATORS of the generators of mono, in `_extend`'s
    letter order: the coordinates, then p1, p2, p3, and p0 last."""
    exps = mono.alpha + mono.beta
    return tuple(j for j in _LETTERS for _ in range(exps[j]))


def _spatial_parts(f: Polynomial) -> list[tuple[int, Polynomial]]:
    """(d, f_d) for each spatial degree d of f, f_d the part of that degree."""
    parts: dict = {}
    for e, s in f.terms.items():
        parts.setdefault(sum(e[1:]), {})[e] = s
    return [(d, Polynomial(t, f.order)) for d, t in parts.items()]

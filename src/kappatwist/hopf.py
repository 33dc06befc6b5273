"""Twist family, deformed coproducts, universal R-matrix and star products.

A `TwistContext` fixes the truncation order and the twist parameter (symbolic
or a rational value).  The twist exponent is

    f = i*(lam * S (x) A - (1 - lam) * A (x) S),

with S = x_k p_k and A = a0*p0; its exponential deforms the undeformed
coproducts by conjugation.  The R-matrix exponent is rho = i*(A (x) S -
S (x) A).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    AlgebraElement,
    DIM,
    Polynomial,
    UNIT_MONOMIAL,
    act,
    dilatation,
    p,
    time_translation,
    x,
    z_power,
)
from .scalars import (
    LP_LAM,
    LambdaPoly,
    Scalar,
    UsageError,
)
from .tensor import (
    RelationSet,
    TensorElement,
    TensorElement3,
    canonicalize,
    embed_left,
    embed_right,
    t3_exp,
    t_adjoint,
    t_exp,
    tau0,
    tensor,
    tensor3,
)


class TwistContext:
    """Shared state for one (lam, N) deformation setting."""

    def __init__(self, order: int = 4, lam=None):
        if not 1 <= order <= 6:
            raise UsageError("truncation order must be in 1..6")
        self.order = order
        self.lam = None if lam is None else Fraction(lam)
        self.lam_poly = LP_LAM if self.lam is None else LambdaPoly.const(self.lam)
        n = order
        self.one = AlgebraElement.one(n)
        self.S = dilatation(n)
        self.A = time_translation(n)
        i = Scalar.i(n)
        lam_s = Scalar.from_value(self.lam_poly, n)
        one_s = Scalar.one(n)
        # twist exponent f = i(lam S (x) A - (1-lam) A (x) S)
        self.twist_exponent = tensor(self.S, self.A).scale(i * lam_s) - tensor(
            self.A, self.S
        ).scale(i * (one_s - lam_s))
        # R-matrix exponent rho = i(A (x) S - S (x) A)
        self.r_exponent = (
            tensor(self.A, self.S) - tensor(self.S, self.A)
        ).scale(i)
        self.R0 = RelationSet("R0", n)
        self.R = RelationSet("R", n, self.lam)
        self.Rtilde = RelationSet("Rtilde", n, self.lam)
        self._cache: dict[str, object] = {}

    # -- basic elements -------------------------------------------------

    def z(self, exponent=1) -> AlgebraElement:
        """Z^c with c a rational or lam-polynomial exponent."""
        cp = exponent
        if isinstance(cp, (int, Fraction)):
            cp = LambdaPoly.const(cp)
        if self.lam is not None:
            cp = LambdaPoly.const(cp.eval(self.lam))
        return z_power(cp, self.order)

    def generator(self, name: str) -> AlgebraElement:
        table = {
            "x0": lambda: x(0, self.order),
            "x1": lambda: x(1, self.order),
            "x2": lambda: x(2, self.order),
            "x3": lambda: x(3, self.order),
            "p0": lambda: p(0, self.order),
            "p1": lambda: p(1, self.order),
            "p2": lambda: p(2, self.order),
            "p3": lambda: p(3, self.order),
            "A": lambda: self.A,
            "S": lambda: self.S,
            "Z": lambda: self.z(1),
        }
        try:
            return table[name]()
        except KeyError:
            raise UsageError(f"unknown generator {name!r}") from None

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

    # -- coproducts ------------------------------------------------------

    def coproduct0(self, h: AlgebraElement, x_rep: str = "left") -> TensorElement:
        """Undeformed coproduct, canonical mod R0.

        `x_rep` picks the representative used for the primitive class of the
        coordinates (x (x) 1 or 1 (x) x); the result is independent of it.
        """
        return canonicalize(self._coproduct0_free(h, x_rep), self.R0)

    def _coproduct0_free(self, h: AlgebraElement, x_rep: str = "left") -> TensorElement:
        n = self.order
        out = TensorElement.zero(n)
        unit = self.one
        for mono, s in h.terms.items():
            acc = TensorElement.one(n)
            for mu in range(DIM):
                for _ in range(mono.alpha[mu]):
                    leg = (
                        tensor(x(mu, n), unit)
                        if x_rep == "left"
                        else tensor(unit, x(mu, n))
                    )
                    acc = acc * leg
            for mu in range(DIM):
                for _ in range(mono.beta[mu]):
                    acc = acc * (tensor(p(mu, n), unit) + tensor(unit, p(mu, n)))
            out = out + acc.scale(s)
        return out

    def coproduct(self, h: AlgebraElement, x_rep: str = "left") -> TensorElement:
        """Deformed coproduct F Delta0 F^-1, canonical mod R."""
        free = t_adjoint(self.twist_exponent, self._coproduct0_free(h, x_rep))
        return canonicalize(free, self.R)

    def coproduct_opposite(self, h: AlgebraElement) -> TensorElement:
        """Opposite coproduct tau0 Delta tau0, canonical mod Rtilde."""
        free = t_adjoint(self.twist_exponent, self._coproduct0_free(h))
        return canonicalize(tau0(free), self.Rtilde)

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
        n = self.order
        out = TensorElement.zero(n)
        for mono, s in h.terms.items():
            acc = TensorElement.one(n)
            for mu in range(DIM):
                dg = self.generator_coproduct(f"x{mu}")
                for _ in range(mono.alpha[mu]):
                    acc = acc * dg
            for mu in range(DIM):
                dg = self.generator_coproduct(f"p{mu}")
                for _ in range(mono.beta[mu]):
                    acc = acc * dg
            out = out + acc.scale(s)
        return canonicalize(out, self.R)

    def rmatrix_conjugate(self, h: AlgebraElement) -> TensorElement:
        """R (Delta h) R^-1, canonical mod Rtilde; equals the opposite coproduct."""
        free = t_adjoint(self.twist_exponent, self._coproduct0_free(h))
        return canonicalize(t_adjoint(self.r_exponent, free), self.Rtilde)

    # -- twist axioms ----------------------------------------------------

    def verify_cocycle(self, flip_sign: bool = False) -> bool:
        """(F (x) 1)((Delta0 (x) id)F) == (1 (x) F)((id (x) Delta0)F).

        Delta0 acts primitively on both exponent legs (S and A are primitive).
        `flip_sign` deliberately corrupts one exponent term for mutation
        testing.
        """
        n = self.order
        i = Scalar.i(n)
        lam_s = Scalar.from_value(self.lam_poly, n)
        one_s = Scalar.one(n)
        sign = -1 if flip_sign else 1
        S, A, unit = self.S, self.A, self.one

        def exponent3(split_first: bool) -> TensorElement3:
            # split_first: apply Delta0 to the first leg, else to the second.
            def pair(left, right):
                if split_first:
                    return (
                        tensor3(left, unit, right) + tensor3(unit, left, right)
                    )
                return tensor3(left, right, unit) + tensor3(left, unit, right)

            return pair(S, A) * (i * lam_s) - pair(A, S) * (
                i * (one_s - lam_s)
            ) * sign

        lhs = embed_left(self.twist()) * t3_exp(exponent3(True))
        rhs = embed_right(self.twist()) * t3_exp(exponent3(False))
        return lhs == rhs

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
        """f -> m0(F^-1 |> (x_mu (x) f)) with leg-wise module action."""
        if not 0 <= mu < DIM:
            raise UsageError(f"index {mu} out of range")
        return self._legwise_action(
            self.twist_inverse(), Polynomial.x_monomial(_unit_exp(mu), self.order), f
        )

    def _legwise_action(
        self, op: TensorElement, f: Polynomial, g: Polynomial
    ) -> Polynomial:
        n = self.order
        out = Polynomial.zero(n)
        for (l, r), s in op.terms.items():
            left = act(AlgebraElement.monomial(l, n), f)
            if left.is_zero():
                continue
            right = act(AlgebraElement.monomial(r, n), g)
            if right.is_zero():
                continue
            out = out + (left * right) * s
        return out

    def xhat(self, mu: int) -> AlgebraElement:
        """Closed-form noncommutative coordinates of the twist family."""
        n = self.order
        if mu == 0:
            return x(0, n) - self.S.scale(
                Scalar.a0(n) * (Scalar.one(n) - Scalar.from_value(self.lam_poly, n))
            )
        return x(mu, n) * self.z(-self.lam_poly)

    def star_product(self, f: Polynomial, g: Polynomial, which: str = "F") -> Polynomial:
        if which == "F":
            op = self.twist_inverse()
        elif which == "Ftilde":
            op = self.twist_opposite_inverse()
        else:
            raise UsageError("star product flavor must be 'F' or 'Ftilde'")
        return self._legwise_action(op, f, g)


def _unit_exp(mu: int):
    e = [0, 0, 0, 0]
    e[mu] = 1
    return tuple(e)

"""Exact coefficient arithmetic.

The coefficient ring is built in three layers:

* ``GaussianRational`` -- complex numbers with rational real/imaginary parts,
* ``LambdaPoly`` -- polynomials in the twist parameter ``lam`` over the above,
* ``Scalar`` -- graded polynomials in the deformation parameter ``a0``,
  truncated at a fixed order ``N`` (everything above ``a0^N`` is discarded).

``OneVarSeries`` holds truncated formal series in an auxiliary variable ``u``
with ``LambdaPoly`` entries; it is used for the generator-profile functions
that get evaluated at ``A = a0*p0``.

All values are immutable; operations return fresh objects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union


class UsageError(ValueError):
    """Raised on caller mistakes (mismatched orders, bad indices...)."""


class DomainError(ArithmeticError):
    """Raised when an operation leaves its mathematical domain."""


RationalLike = Union[int, Fraction]


class GaussianRational:
    """A complex number re + i*im with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return gaussian_str(self)


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def gaussian_str(g: GaussianRational) -> str:
    """Canonical text form: ``a/b``, ``c/d*I`` or ``a/b + c/d*I``."""
    if not g:
        return "0"
    parts = []
    if g.re:
        parts.append(str(g.re))
    if g.im:
        if g.im == 1:
            parts.append("I")
        elif g.im == -1:
            parts.append("-I")
        else:
            parts.append(f"{g.im}*I")
    if len(parts) == 2 and not parts[1].startswith("-"):
        return parts[0] + " + " + parts[1]
    if len(parts) == 2:
        return parts[0] + " - " + parts[1][1:]
    return parts[0]


class LambdaPoly:
    """Polynomial in ``lam`` with GaussianRational coefficients, sparse."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, GaussianRational] | None = None):
        clean = {}
        if coeffs:
            for deg, val in coeffs.items():
                if deg < 0:
                    raise UsageError("negative lam degree")
                if not isinstance(val, GaussianRational):
                    val = GaussianRational(val)
                if val:
                    clean[deg] = val
        object.__setattr__(self, "c", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaPoly is immutable")

    @staticmethod
    def const(value) -> "LambdaPoly":
        g = value if isinstance(value, GaussianRational) else GaussianRational(value)
        return LambdaPoly({0: g})

    @staticmethod
    def gen() -> "LambdaPoly":
        return LambdaPoly({1: GR_ONE})

    def __bool__(self):
        return bool(self.c)

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return max(self.c) if self.c else -1

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        out = dict(self.c)
        for deg, val in other.c.items():
            out[deg] = out.get(deg, GR_ZERO) + val
        return LambdaPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LambdaPoly({d: -v for d, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        out: dict[int, GaussianRational] = {}
        for d1, v1 in self.c.items():
            for d2, v2 in other.c.items():
                d = d1 + d2
                out[d] = out.get(d, GR_ZERO) + v1 * v2
        return LambdaPoly(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "LambdaPoly":
        g = factor if isinstance(factor, GaussianRational) else GaussianRational(factor)
        if not g:
            return LP_ZERO
        return LambdaPoly({d: v * g for d, v in self.c.items()})

    def eval(self, value: RationalLike) -> GaussianRational:
        v = Fraction(value)
        acc = GR_ZERO
        for deg, coef in self.c.items():
            acc = acc + coef * GaussianRational(v**deg)
        return acc

    def constant_term(self) -> GaussianRational:
        return self.c.get(0, GR_ZERO)

    def __repr__(self):
        return f"LambdaPoly({self.c!r})"


LP_ZERO = LambdaPoly()
LP_ONE = LambdaPoly.const(1)
LP_LAM = LambdaPoly.gen()


def as_lambda_poly(value) -> LambdaPoly:
    if isinstance(value, LambdaPoly):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return LambdaPoly.const(value)
    raise UsageError(f"cannot interpret {value!r} as a lam-polynomial")


class Scalar:
    """Graded truncated element: sum over k<=N of a0^k * (lam-polynomial)."""

    __slots__ = ("components", "order")

    def __init__(self, components: Iterable[LambdaPoly], order: int):
        if not 1 <= order <= 16:
            raise UsageError(f"truncation order {order} out of range")
        comps = tuple(components)
        if len(comps) != order + 1:
            raise UsageError("component count must be order + 1")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def zero(order: int) -> "Scalar":
        return Scalar((LP_ZERO,) * (order + 1), order)

    @staticmethod
    def one(order: int) -> "Scalar":
        return Scalar((LP_ONE,) + (LP_ZERO,) * order, order)

    @staticmethod
    def from_value(value, order: int) -> "Scalar":
        return Scalar((as_lambda_poly(value),) + (LP_ZERO,) * order, order)

    @staticmethod
    def i(order: int) -> "Scalar":
        return Scalar.from_value(GR_I, order)

    @staticmethod
    def lam(order: int) -> "Scalar":
        return Scalar.from_value(LP_LAM, order)

    @staticmethod
    def a0(order: int, power: int = 1) -> "Scalar":
        if power < 0:
            raise UsageError("negative a0 power")
        if power > order:
            return Scalar.zero(order)
        comps = [LP_ZERO] * (order + 1)
        comps[power] = LP_ONE
        return Scalar(comps, order)

    @staticmethod
    def graded(value, a0_power: int, order: int) -> "Scalar":
        if a0_power > order:
            return Scalar.zero(order)
        comps = [LP_ZERO] * (order + 1)
        comps[a0_power] = as_lambda_poly(value)
        return Scalar(comps, order)

    def _check(self, other: "Scalar"):
        if self.order != other.order:
            raise UsageError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def __bool__(self):
        return any(self.components)

    def is_zero(self) -> bool:
        return not any(self.components)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return self.components == other.components

    def __hash__(self):
        return hash((self.components, self.order))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, LambdaPoly)):
            other = Scalar.from_value(other, self.order)
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        return Scalar(
            tuple(a + b for a, b in zip(self.components, other.components)),
            self.order,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Scalar) else -Scalar.from_value(other, self.order))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Scalar(tuple(-p for p in self.components), self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if isinstance(other, LambdaPoly):
            return Scalar(tuple(p * other for p in self.components), self.order)
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check(other)
        n = self.order
        out = [LP_ZERO] * (n + 1)
        for i, pi in enumerate(self.components):
            if pi.is_zero():
                continue
            for j in range(0, n - i + 1):
                pj = other.components[j]
                if pj.is_zero():
                    continue
                out[i + j] = out[i + j] + pi * pj
        return Scalar(out, n)

    __rmul__ = __mul__

    def scale(self, factor) -> "Scalar":
        g = factor if isinstance(factor, GaussianRational) else GaussianRational(factor)
        if not g:
            return Scalar.zero(self.order)
        return Scalar(tuple(p.scale(g) for p in self.components), self.order)

    def min_grade(self) -> int | None:
        """Lowest a0 power with a nonzero coefficient, or None for zero."""
        for k, p in enumerate(self.components):
            if p:
                return k
        return None

    def grade_part(self, k: int) -> "Scalar":
        if k > self.order:
            return Scalar.zero(self.order)
        return Scalar.graded(self.components[k], k, self.order)

    def a0_limit(self) -> "Scalar":
        """Drop every positive power of a0."""
        return Scalar((self.components[0],) + (LP_ZERO,) * self.order, self.order)

    def substitute_lambda(self, value: RationalLike) -> "Scalar":
        return Scalar(
            tuple(LambdaPoly.const(p.eval(value)) if p else LP_ZERO for p in self.components),
            self.order,
        )

    def lambda_degree(self) -> int:
        return max((p.degree() for p in self.components), default=-1)

    def __repr__(self):
        return f"Scalar({scalar_str(self)!r}, N={self.order})"

    def __str__(self):
        return scalar_str(self)


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    return a + b


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    return a * b


def scalar_neg(a: Scalar) -> Scalar:
    return -a


def substitute_lambda(s: Scalar, value: RationalLike) -> Scalar:
    return s.substitute_lambda(value)


def scalar_str(s: Scalar) -> str:
    """Grammar-compatible rendering, e.g. ``1/2 + 3*I*a0^2*lam``."""
    pieces = []
    for k, poly in enumerate(s.components):
        for deg in sorted(poly.c):
            coef = poly.c[deg]
            factors = []
            if k:
                factors.append("a0" if k == 1 else f"a0^{k}")
            if deg:
                factors.append("lam" if deg == 1 else f"lam^{deg}")
            body = "*".join(factors)
            pieces.append(_coef_factor_str(coef, body))
    if not pieces:
        return "0"
    text = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            text += " - " + piece[1:]
        else:
            text += " + " + piece
    return text


def _coef_factor_str(coef: GaussianRational, body: str) -> str:
    """Render coef * body with minimal parentheses."""
    if not body:
        ctext = gaussian_str(coef)
        return f"({ctext})" if (" " in ctext) else ctext
    if coef == GR_ONE:
        return body
    if coef == -GR_ONE:
        return "-" + body
    ctext = gaussian_str(coef)
    if " " in ctext:
        return f"({ctext})*{body}"
    return f"{ctext}*{body}"


class OneVarSeries:
    """Truncated series in a formal variable u with LambdaPoly entries."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[LambdaPoly], order: int):
        cs = tuple(coeffs)
        if len(cs) != order + 1:
            raise UsageError("coefficient count must be order + 1")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("OneVarSeries is immutable")

    @staticmethod
    def zero(order: int) -> "OneVarSeries":
        return OneVarSeries((LP_ZERO,) * (order + 1), order)

    @staticmethod
    def one(order: int) -> "OneVarSeries":
        return OneVarSeries((LP_ONE,) + (LP_ZERO,) * order, order)

    @staticmethod
    def u(order: int) -> "OneVarSeries":
        comps = [LP_ZERO] * (order + 1)
        if order >= 1:
            comps[1] = LP_ONE
        return OneVarSeries(comps, order)

    @staticmethod
    def linear(c, order: int) -> "OneVarSeries":
        """The series c*u."""
        comps = [LP_ZERO] * (order + 1)
        if order >= 1:
            comps[1] = as_lambda_poly(c)
        return OneVarSeries(comps, order)

    def _check(self, other: "OneVarSeries"):
        if self.order != other.order:
            raise UsageError("series order mismatch")

    def __eq__(self, other):
        if not isinstance(other, OneVarSeries):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, OneVarSeries):
            return NotImplemented
        self._check(other)
        return OneVarSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OneVarSeries(tuple(-c for c in self.coeffs), self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, LambdaPoly)):
            f = as_lambda_poly(other)
            return OneVarSeries(tuple(c * f for c in self.coeffs), self.order)
        if not isinstance(other, OneVarSeries):
            return NotImplemented
        self._check(other)
        n = self.order
        out = [LP_ZERO] * (n + 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j in range(0, n - i + 1):
                cj = other.coeffs[j]
                if cj.is_zero():
                    continue
                out[i + j] = out[i + j] + ci * cj
        return OneVarSeries(out, n)

    __rmul__ = __mul__

    def constant_term(self) -> LambdaPoly:
        return self.coeffs[0]

    def substitute_lambda(self, value: RationalLike) -> "OneVarSeries":
        return OneVarSeries(
            tuple(LambdaPoly.const(c.eval(value)) if c else LP_ZERO for c in self.coeffs),
            self.order,
        )

    def __repr__(self):
        return f"OneVarSeries({self.coeffs!r}, N={self.order})"


def series_exp(s: OneVarSeries) -> OneVarSeries:
    """exp of a series with zero constant term, truncated."""
    if s.constant_term():
        raise DomainError("series_exp needs zero constant term")
    acc = OneVarSeries.one(s.order)
    power = OneVarSeries.one(s.order)
    for n in range(1, s.order + 1):
        power = power * s
        if power.is_zero():
            break
        inv_fact = Fraction(1, math.factorial(n))
        acc = acc + power * inv_fact
    return acc


def series_div_u(s: OneVarSeries) -> OneVarSeries:
    """Exact division by u; shifts every degree down by one.

    The top coefficient of the result is unknowable at this truncation and is
    set to zero, consistent with working modulo u^(N+1).
    """
    if s.constant_term():
        raise DomainError("series_div_u needs zero constant term")
    return OneVarSeries(s.coeffs[1:] + (LP_ZERO,), s.order)


def series_exp_linear(c, order: int) -> OneVarSeries:
    """exp(c*u) for a lam-polynomial constant c."""
    cp = as_lambda_poly(c)
    comps = []
    power = LP_ONE
    for n in range(order + 1):
        comps.append(power * Fraction(1, math.factorial(n)))
        power = power * cp
    return OneVarSeries(comps, order)

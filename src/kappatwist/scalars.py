"""Exact coefficient arithmetic.

Every exact number is a Gaussian rational stored as one normalised integer
triple ``(a, b, d)`` meaning ``(a + b*i)/d``, with ``d > 0`` and
``gcd(a, b, d) == 1``: real and imaginary parts share one denominator, as
in FLINT's ``fmpq_poly``; ``triple_mul`` multiplies two of them.  On top
of that triple:

* ``GaussianRational`` -- one triple as a number object, with ``re`` and
  ``im`` read back as ``Fraction``,
* ``Scalar`` -- a sparse dict ``{(k, j): (a, b, d)}`` for the coefficient
  ``sum (a + b*i)/d * a0^k * lam^j``, truncated at a fixed order ``N``:
  every term above ``a0^N`` is dropped, which is a filter on ``k``,
* ``LambdaPoly`` -- a polynomial in the twist parameter ``lam``: a Scalar
  at truncation order 0, used for exponents and the twist parameter.

``exact_triple`` is the one test of what an exact number is: an int, a
``Fraction`` or a ``GaussianRational``.  Every constructor and operator
reads constants through it, so a float, a string or a ``Decimal`` never
enters the arithmetic: a named constructor or method raises
``UsageError`` for it, and an operator returns ``NotImplemented``.

``Scalar`` is the one graded type, and ``LambdaPoly`` is that type at
order 0 with its arithmetic inherited.  The kernels work on the integer
triples directly and build no intermediate ``GaussianRational`` or
``Fraction`` objects; monomial products hand their coefficients to
``Scalar.scale`` as triples.  Functions of
``A = a0*p0`` (the boost profile functions, ``Z^c``) are algebra
elements, built in ``algebra`` and ``poincare``.

All values are immutable; operations return fresh objects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union


class UsageError(ValueError):
    """Raised on caller mistakes (mismatched orders, bad indices...)."""


class DomainError(ArithmeticError):
    """Raised when an operation leaves its mathematical domain."""


RationalLike = Union[int, Fraction]

# (a, b, d) meaning (a + b*i)/d, d > 0, gcd(a, b, d) == 1; zero is (0, 0, 1)
Triple = tuple[int, int, int]
# {(grade, lam power): Triple}, no zero values
Terms = dict[tuple[int, int], Triple]

_gcd = math.gcd
_new = object.__new__


def _normed(acc: Terms) -> Terms:
    """Reduce every triple to lowest terms and drop the zero ones."""
    out = {}
    for key, (a, b, d) in acc.items():
        if a or b:
            g = _gcd(a, b, d)
            out[key] = (a // g, b // g, d // g) if g != 1 else (a, b, d)
    return out


def _reduce(a: int, b: int, d: int) -> Triple:
    g = _gcd(a, b, d)
    return (a // g, b // g, d // g) if g != 1 else (a, b, d)


def triple_mul(t1: Triple, t2: Triple) -> Triple:
    """Product of two normalised triples, normalised."""
    a1, b1, d1 = t1
    a2, b2, d2 = t2
    return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


class GaussianRational:
    """A complex number re + i*im with exact rational parts.

    Stored as the normalised triple ``(a, b, d)`` with re = a/d, im = b/d.
    """

    __slots__ = ("triple",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if re.__class__ is int and im.__class__ is int:
            triple = (re, im, 1)
        else:
            (p1, q1), (p2, q2) = _rational(re), _rational(im)
            d = q1 * q2 // _gcd(q1, q2)
            # with both parts in lowest terms the lcm is the least common
            # denominator, so the triple is already normalised
            triple = (p1 * (d // q1), p2 * (d // q2), d)
        _set_triple(self, triple)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self.triple
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.triple
        return Fraction(b, d)

    def __bool__(self):
        a, b, _ = self.triple
        return bool(a or b)

    def __eq__(self, other):
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        return self.triple == t

    def __hash__(self):
        # a real value hashes as its Fraction, so equal numbers hash equal
        a, b, d = self.triple
        return hash(self.triple) if b else hash(Fraction(a, d))

    def __add__(self, other):
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        a1, b1, d1 = self.triple
        a2, b2, d2 = t
        if d1 == d2:
            return _gr(_reduce(a1 + a2, b1 + b2, d1))
        return _gr(_reduce(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2))

    __radd__ = __add__

    def __sub__(self, other):
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        a1, b1, d1 = self.triple
        a2, b2, d2 = t
        return _gr(_reduce(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2))

    def __rsub__(self, other):
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        return _gr(t) - self

    def __neg__(self):
        a, b, d = self.triple
        return _gr((-a, -b, d))

    def __mul__(self, other):
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        return _gr(triple_mul(self.triple, t))

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self.triple
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gr(_reduce(d * a, -d * b, n))

    def __truediv__(self, other):
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        return self * _gr(t).inverse()

    def __rtruediv__(self, other):
        t = exact_triple(other)
        if t is None:
            return NotImplemented
        return _gr(t) * self.inverse()

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
        return _triple_str(self.triple)


_set_triple = GaussianRational.triple.__set__


def _gr(triple: Triple) -> GaussianRational:
    """Wrap an already normalised triple."""
    g = _new(GaussianRational)
    _set_triple(g, triple)
    return g


def exact_triple(value) -> Triple | None:
    """The normalised triple of an exact number -- an int, a Fraction or a
    GaussianRational -- and None for anything else (a float, a str, a
    Decimal, None).  This is the one test of what an exact constant is."""
    if value.__class__ is int:
        return (value, 0, 1)
    if isinstance(value, GaussianRational):
        return value.triple
    if isinstance(value, Fraction):
        return (value.numerator, 0, value.denominator)
    if isinstance(value, int):
        return (int(value), 0, 1)
    return None


def _exact(value) -> Triple:
    """`exact_triple` for a named constructor or method: a value that is
    not exact raises UsageError."""
    t = exact_triple(value)
    if t is None:
        raise UsageError(
            f"{value!r} is not an exact number (int, Fraction or GaussianRational)"
        )
    return t


def _rational(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact real number."""
    a, b, d = _exact(value)
    if b:
        raise UsageError(f"{value!r} is not a rational number")
    return a, d


def as_gaussian(value) -> GaussianRational:
    """An exact number as a GaussianRational; UsageError otherwise."""
    if value.__class__ is GaussianRational:
        return value
    return _gr(_exact(value))


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def _rational_str(n: int, d: int) -> str:
    g = _gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _triple_str(triple: Triple) -> str:
    a, b, d = triple
    if not a and not b:
        return "0"
    parts = []
    if a:
        parts.append(_rational_str(a, d))
    if b:
        if b == d:
            parts.append("I")
        elif b == -d:
            parts.append("-I")
        else:
            parts.append(f"{_rational_str(b, d)}*I")
    if len(parts) == 2 and not parts[1].startswith("-"):
        return parts[0] + " + " + parts[1]
    if len(parts) == 2:
        return parts[0] + " - " + parts[1][1:]
    return parts[0]


def _const_terms(value, grade: int = 0) -> Terms | None:
    """Terms of a constant (an exact number or a LambdaPoly) placed at one
    grade; None for anything else."""
    if isinstance(value, LambdaPoly):
        if not grade:
            return value.terms
        return {(grade, j): t for (_, j), t in value.terms.items()}
    t = exact_triple(value)
    if t is None:
        return None
    return {(grade, 0): t} if t[0] or t[1] else {}


def _neg(terms: Terms) -> Terms:
    return {key: (-a, -b, d) for key, (a, b, d) in terms.items()}


def _add(t1: Terms, t2: Terms) -> Terms:
    if not t2:
        return t1
    if not t1:
        return t2
    out = dict(t1)
    for key, (a2, b2, d2) in t2.items():
        cur = out.get(key)
        if cur is None:
            out[key] = (a2, b2, d2)
            continue
        a1, b1, d1 = cur
        if d1 == d2:
            a, b, d = a1 + a2, b1 + b2, d1
        else:
            a, b, d = a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2
        if a or b:
            out[key] = _reduce(a, b, d)
        else:
            del out[key]
    return out


def _mul(t1: Terms, t2: Terms, order: int) -> Terms:
    """Product truncated above grade `order`.

    Two one-term operands, most of the products the engine makes (a
    coefficient usually holds one a0 grade and one lam power), give their
    one product directly, reduced; a product of two nonzero Gaussian
    rationals is nonzero.  Otherwise every pair of terms goes through one
    double loop, whose sums are collected over a common denominator and
    reduced once at the end."""
    if len(t1) == 1 == len(t2):
        [((k1, j1), (a1, b1, d1))] = t1.items()
        [((k2, j2), (a2, b2, d2))] = t2.items()
        if k1 + k2 > order:
            return {}
        t = _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)
        return {(k1 + k2, j1 + j2): t}
    # min() of the keys gives the lowest grade; most products in a
    # truncated exponential vanish by this test alone
    if not t1 or not t2 or min(t1)[0] + min(t2)[0] > order:
        return {}
    acc: Terms = {}
    for (k1, j1), (a1, b1, d1) in t1.items():
        room = order - k1
        for (k2, j2), (a2, b2, d2) in t2.items():
            if k2 > room:
                continue
            key = (k1 + k2, j1 + j2)
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            cur = acc.get(key)
            if cur is None:
                acc[key] = (a, b, d)
            elif cur[2] == d:
                acc[key] = (cur[0] + a, cur[1] + b, d)
            else:
                dc = cur[2]
                acc[key] = (cur[0] * d + a * dc, cur[1] * d + b * dc, dc * d)
    return _normed(acc)


def _scale(terms: Terms, factor: Triple) -> Terms:
    a2, b2, d2 = factor
    if not a2 and not b2:
        return {}
    out = {}
    for key, (a, b, d) in terms.items():
        out[key] = _reduce(a * a2 - b * b2, a * b2 + b * a2, d * d2)
    return out


def _substitute(terms: Terms, value: RationalLike) -> Terms:
    """The terms with lam set to a rational value."""
    p, q = _rational(value)
    acc: Terms = {}
    for (k, j), (a, b, d) in terms.items():
        pj, qj = p**j, q**j
        a, b, d = a * pj, b * pj, d * qj
        cur = acc.get((k, 0))
        if cur is not None:
            a, b, d = cur[0] * d + a * cur[2], cur[1] * d + b * cur[2], cur[2] * d
        acc[(k, 0)] = (a, b, d)
    return _normed(acc)


class Scalar:
    """Graded truncated element: sum over k<=N of a0^k * (lam-polynomial).

    ``terms`` maps (a0 power, lam power) to a normalised triple; it holds no
    zero value and no grade above ``order``.  Build values with the static
    constructors below.  It equals only a value of its own class
    (``Scalar.one(2) == 1`` is False), since equal values must hash equal
    and its hash covers its terms and its truncation order.

    The ring operations build their result in the class of ``self``, so
    a ``LambdaPoly`` (a Scalar at order 0) stays one under them.  A
    Scalar at ``N`` takes a ``LambdaPoly`` operand as a constant and gives
    a Scalar at ``N``, in either operand order.
    """

    __slots__ = ("terms", "order")

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def zero(order: int) -> "Scalar":
        return _build({}, order)

    @staticmethod
    def one(order: int) -> "Scalar":
        return _build({(0, 0): (1, 0, 1)}, order)

    @staticmethod
    def from_value(value, order: int) -> "Scalar":
        """An exact number or a LambdaPoly as a Scalar."""
        return Scalar.graded(value, 0, order)

    @staticmethod
    def i(order: int) -> "Scalar":
        return _build({(0, 0): (0, 1, 1)}, order)

    @staticmethod
    def a0(order: int, power: int = 1) -> "Scalar":
        return Scalar.graded(1, power, order)

    @staticmethod
    def graded(value, a0_power: int, order: int) -> "Scalar":
        """value * a0^a0_power for an exact number or a LambdaPoly."""
        if a0_power < 0:
            raise UsageError("negative a0 power")
        terms = _const_terms(value, a0_power)
        if terms is None:
            raise UsageError(f"{value!r} is not an exact number or a lam-polynomial")
        return _build(terms if a0_power <= order else {}, order)

    def _mismatch(self, other) -> UsageError:
        return UsageError(
            f"truncation order mismatch: {self.order} != {other.order}"
        )

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.order != other.order:
            raise self._mismatch(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.order))

    def _operand(self, other) -> Terms | None:
        """Terms of an operand of this class or of a constant; None
        otherwise."""
        if other.__class__ is self.__class__:
            if self.order != other.order:
                raise self._mismatch(other)
            return other.terms
        return _const_terms(other)

    def __add__(self, other):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        return _build(_add(self.terms, terms), self.order, self.__class__)

    __radd__ = __add__

    def __sub__(self, other):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        return _build(_add(self.terms, _neg(terms)), self.order, self.__class__)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _build(_neg(self.terms), self.order, self.__class__)

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            if self.order != other.order:
                raise self._mismatch(other)
        elif not isinstance(other, LambdaPoly):
            t = exact_triple(other)
            if t is None:
                return NotImplemented
            return self.scale(t)
        return _build(_mul(self.terms, other.terms, self.order), self.order, self.__class__)

    __rmul__ = __mul__

    def scale(self, factor) -> "Scalar":
        """self * factor, for a normalised triple (the coefficients of
        monomial products) or an exact number."""
        t = factor if factor.__class__ is tuple else _exact(factor)
        if t == (1, 0, 1):
            return self
        return _build(_scale(self.terms, t), self.order, self.__class__)

    def min_grade(self) -> int | None:
        """Lowest a0 power with a nonzero coefficient, or None for zero."""
        return min(self.terms)[0] if self.terms else None

    def grade_part(self, k: int) -> "Scalar":
        return _build({key: t for key, t in self.terms.items() if key[0] == k}, self.order)

    def at_order(self, order: int) -> "Scalar":
        """The same coefficient truncated at `order`: lowering the order
        drops the grades above it, raising it keeps every term."""
        if order >= self.order:
            return _build(self.terms, order)
        return _build({key: t for key, t in self.terms.items() if key[0] <= order}, order)

    def numeric_coefficient(self, grade: int) -> GaussianRational:
        """The number multiplying a0^grade; the twist parameter must not
        appear at that grade."""
        for k, j in self.terms:
            if k == grade and j:
                raise UsageError("symbolic twist parameter leaked into a numeric system")
        t = self.terms.get((grade, 0))
        return GR_ZERO if t is None else _gr(t)

    def __repr__(self):
        return f"{type(self).__name__}({scalar_str(self)!r}, N={self.order})"

    def __str__(self):
        return scalar_str(self)


_set_terms = Scalar.terms.__set__
_set_order = Scalar.order.__set__


def _build(terms: Terms, order: int, cls: type = Scalar) -> Scalar:
    obj = _new(cls)
    _set_terms(obj, terms)
    _set_order(obj, order)
    return obj


class LambdaPoly(Scalar):
    """Polynomial in ``lam`` with Gaussian rational coefficients: a
    ``Scalar`` at truncation order 0, whose terms are ``{(0, j): triple}``.

    Its ring operations are the Scalar ones; it adds only the
    ``{degree: value}`` constructor, ``const``, ``gen`` and ``eval``.
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        terms = {}
        for deg, val in (coeffs or {}).items():
            if deg < 0:
                raise UsageError("negative lam degree")
            t = _exact(val)
            if t[0] or t[1]:
                terms[(0, deg)] = t
        _set_terms(self, terms)
        _set_order(self, 0)

    # its own entry, so that a tracer can count lam-polynomial products
    # apart from the Scalar ones (perfbench/layers.py)
    __mul__ = Scalar.__mul__

    @staticmethod
    def const(value) -> "LambdaPoly":
        return LambdaPoly({0: value})

    @staticmethod
    def gen() -> "LambdaPoly":
        return _build({(0, 1): (1, 0, 1)}, 0, LambdaPoly)

    def eval(self, value: RationalLike) -> GaussianRational:
        t = _substitute(self.terms, value).get((0, 0))
        return GR_ZERO if t is None else _gr(t)


LP_ZERO = LambdaPoly()
LP_ONE = LambdaPoly.const(1)
LP_LAM = LambdaPoly.gen()


def as_lambda_poly(value) -> LambdaPoly:
    """A constant as a lam-polynomial.  A Scalar qualifies when it is a
    rational polynomial in lam: no a0 and no I."""
    if isinstance(value, LambdaPoly):
        return value
    terms = _const_terms(value)
    if terms is None and isinstance(value, Scalar) and not any(
        k or b for (k, _), (_, b, _) in value.terms.items()
    ):
        terms = value.terms
    if terms is None:
        raise UsageError(f"cannot interpret {value} as a rational lam-polynomial")
    return _build(terms, 0, LambdaPoly)


def as_scalar(value, order: int) -> Scalar | None:
    """A Scalar as it is, an exact number or a LambdaPoly as a Scalar at
    `order`, and None for anything else."""
    if value.__class__ is Scalar:
        return value
    terms = _const_terms(value)
    return None if terms is None else _build(terms, order)


def scalar_str(s: Scalar) -> str:
    """Grammar-compatible rendering, e.g. ``1/2 + 3*I*a0^2*lam``."""
    pieces = []
    for (k, deg), coef in sorted(s.terms.items()):
        factors = []
        if k:
            factors.append("a0" if k == 1 else f"a0^{k}")
        if deg:
            factors.append("lam" if deg == 1 else f"lam^{deg}")
        pieces.append(term_str(_triple_str(coef), "*".join(factors) or "1"))
    return sum_str(pieces)


def term_str(ctext: str, body: str) -> str:
    """Render the coefficient text times the basis text ``body`` ("1" for
    the unit) with minimal parentheses."""
    atomic = " " not in ctext
    if body == "1":
        return ctext if atomic else f"({ctext})"
    if ctext == "1":
        return body
    if ctext == "-1":
        return "-" + body
    return f"{ctext}*{body}" if atomic else f"({ctext})*{body}"


def sum_str(pieces) -> str:
    """Join rendered terms with " + " and " - "; "0" for no terms."""
    text = ""
    for piece in pieces:
        if not text:
            text = piece
        elif piece.startswith("-"):
            text += " - " + piece[1:]
        else:
            text += " + " + piece
    return text or "0"

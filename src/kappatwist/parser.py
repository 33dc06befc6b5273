"""Expression parser for the command-line surface.

Grammar (whitespace insensitive):

    texpr  := tsum
    tsum   := tterm (("+" | "-") tterm)*
    tterm  := expr ("ox" expr)?
    expr   := sum
    sum    := prod (("+" | "-") prod)*
    prod   := pow ("*" pow)*
    pow    := atom ("^" int)?
    atom   := rational | "I" | "a0" | "lam" | generator
            | "Z" "^" "[" expr "]"
            | "exp" "(" expr ")" | "(" expr ")"

Generators: hopf.GENERATORS (x0..x3, p0..p3, A, S, Z), M[i,j], Mhat[i,0].
Tensor products are single level; sums of tensor terms are accepted so
canonical renderings round-trip.  The exponent of `Z^[...]` is an ordinary
`expr`; elaboration requires it to be a rational polynomial in `lam` (no
generators, `a0` or `I`).
Brackets ("(", "exp(", "Z^[") and unary signs nest at most MAX_NESTING
deep, which keeps the recursive descent inside Python's recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import UNIT_MONOMIAL, AlgebraElement, graded_exp
from .hopf import GENERATORS, TwistContext
from .scalars import Scalar, UsageError, as_lambda_poly
from .tensor import TensorElement, tensor


class ParseError(UsageError):
    """Malformed input; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|\+|-|\(|\)|\[|\]|,))"
)

# four parser frames per bracket level: 200 levels need about 800 frames
MAX_NESTING = 200


def tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# -- AST -----------------------------------------------------------------
# nodes: ("num", Fraction) ("I",) ("a0",) ("lam",) ("gen", name)
#        ("M", i, j) ("Mhat", i) ("Z", node) ("exp", node)
#        ("mul", [nodes]) ("pow", node, int) ("sum", [(sign, node), ...])
#        ("tensor", left, right) ("tsum", [(sign, node), ...])


class Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def at_op(self, *values):
        tok = self.peek()
        return tok[0] == "op" and tok[1] in values

    def integer(self, what: str) -> tuple[int, int]:
        """The next token as a nonnegative integer, with its offset."""
        tok = self.expect("num")
        if "/" in tok[1]:
            raise ParseError(f"integer {what} required", tok[2])
        return int(tok[1]), tok[2]

    # -- entry points ----------------------------------------------------

    def parse(self):
        node = self.tsum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def tsum(self):
        parts = [(1, self.tterm())]
        is_tensor = parts[0][1][0] == "tensor"
        while self.at_op("+", "-"):
            sign = 1 if self.next()[1] == "+" else -1
            start = self.peek()[2]
            parts.append((sign, self.tterm()))
            if (parts[-1][1][0] == "tensor") != is_tensor:
                raise ParseError("cannot mix tensor and plain terms", start)
        if is_tensor:
            return ("tsum", parts)
        return parts[0][1] if len(parts) == 1 else ("sum", parts)

    def tterm(self):
        # a sum that stops at "ox" / tensor-level "+"/"-" is impossible to
        # delimit without parentheses, so within a tensor context the legs
        # are products; parenthesize to embed sums in a leg.
        left = self.prod()
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "ox":
            self.next()
            return ("tensor", left, self.prod())
        return left

    def prod(self):
        factors = [self.power()]
        while self.at_op("*"):
            self.next()
            factors.append(self.power())
        return factors[0] if len(factors) == 1 else ("mul", factors)

    def power(self):
        # every bracket and unary sign recurses through here, one level each
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.peek()[2])
        self.depth += 1
        base = self.atom()
        self.depth -= 1
        if self.at_op("^"):
            tok = self.next()
            sign = 1
            if self.at_op("-"):
                self.next()
                sign = -1
            return ("pow", base, sign * self.integer("exponent")[0])
        return base

    def atom(self):
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            return ("num", _rational(tok))
        if kind == "op" and text == "(":
            inner = self.inner_sum()
            self.expect("op", ")")
            return inner
        if kind == "op" and text == "-":
            return ("sum", [(-1, self.power())])
        if kind == "op" and text == "+":
            return self.power()
        if kind != "name":
            raise ParseError(f"unexpected token {text!r}", pos)
        if text == "I":
            return ("I",)
        if text == "a0":
            return ("a0",)
        if text == "lam":
            return ("lam",)
        if text == "exp":
            self.expect("op", "(")
            inner = self.inner_sum()
            self.expect("op", ")")
            return ("exp", inner)
        if text == "Z" and self.at_op("^") and self.tokens[self.i + 1][:2] == ("op", "["):
            self.next()
            self.next()
            inner = self.inner_sum()
            self.expect("op", "]")
            return ("Z", inner)
        if text == "M" or text == "Mhat":
            self.expect("op", "[")
            i, _ = self.integer("index")
            self.expect("op", ",")
            j, jpos = self.integer("index")
            self.expect("op", "]")
            if text == "Mhat":
                if j != 0:
                    raise ParseError("boost index pair must be [i,0]", jpos)
                return ("Mhat", i)
            return ("M", i, j)
        if text in GENERATORS:
            return ("gen", text)
        raise ParseError(f"unknown identifier {text!r}", pos)

    def inner_sum(self):
        parts = [(1, self.prod())]
        while self.at_op("+", "-"):
            sign = 1 if self.next()[1] == "+" else -1
            parts.append((sign, self.prod()))
        return parts[0][1] if len(parts) == 1 else ("sum", parts)


def _rational(tok) -> Fraction:
    """A number token as a Fraction; a zero denominator is a parse error."""
    den = tok[1].partition("/")[2]
    if den and not int(den):
        raise ParseError("division by zero", tok[2])
    return Fraction(tok[1])


def parse(src: str):
    """Parse to an AST; raises ParseError on malformed input."""
    return Parser(src).parse()


# -- elaboration ---------------------------------------------------------


def elaborate(node, ctx: TwistContext, realization_case: str | None = None):
    """Turn an AST into an AlgebraElement or TensorElement in `ctx`.

    Boost generators Mhat[i,0] need a realization case; rotations and the
    plain generators do not.
    """
    kind = node[0]
    n = ctx.order
    if kind in ("sum", "tsum"):
        out = (AlgebraElement if kind == "sum" else TensorElement).zero(n)
        for sign, part in node[1]:
            e = elaborate(part, ctx, realization_case)
            if kind == "sum":
                _require_plain(e)
            out = out + (e if sign > 0 else -e)
        return out
    if kind == "tensor":
        left = elaborate(node[1], ctx, realization_case)
        right = elaborate(node[2], ctx, realization_case)
        if not isinstance(left, AlgebraElement) or not isinstance(
            right, AlgebraElement
        ):
            raise UsageError("tensor legs must be plain elements")
        return tensor(left, right)
    if kind == "mul":
        out = None
        for part in node[1]:
            e = elaborate(part, ctx, realization_case)
            _require_plain(e)
            out = e if out is None else out * e
        return out
    if kind == "pow":
        base = elaborate(node[1], ctx, realization_case)
        _require_plain(base)
        exp = node[2]
        if exp >= 0:
            return base**exp
        # negative powers only for Z-type group-like elements
        raise UsageError("negative powers are only available as Z^[...]")
    if kind == "num":
        return AlgebraElement.one(n).scale(Scalar.from_value(node[1], n))
    if kind == "I":
        return AlgebraElement.one(n).scale(Scalar.i(n))
    if kind == "a0":
        return AlgebraElement.one(n).scale(Scalar.a0(n))
    if kind == "lam":
        return AlgebraElement.one(n).scale(ctx.lam_poly)
    if kind == "gen":
        return ctx.generator(node[1])
    if kind == "Z":
        exponent = elaborate(node[1], ctx, realization_case)
        if exponent.terms.keys() - {UNIT_MONOMIAL}:
            raise UsageError("a Z^[...] exponent cannot contain generators")
        return ctx.z(as_lambda_poly(exponent.coefficient(UNIT_MONOMIAL)))
    if kind == "exp":
        inner = elaborate(node[1], ctx, realization_case)
        _require_plain(inner)
        return graded_exp(inner)
    if kind == "M":
        from .poincare import mij

        return mij(node[1], node[2], ctx)
    if kind == "Mhat":
        from .poincare import mhat, realization

        if realization_case is None:
            raise UsageError("Mhat[i,0] needs a realization case")
        # once per context: a boost's published coproduct names it twice
        return ctx._cached(
            ("Mhat", node[1], realization_case),
            lambda: mhat(node[1], realization(realization_case, ctx), ctx),
        )
    raise UsageError(f"unhandled node {kind!r}")


def _require_plain(e):
    if not isinstance(e, AlgebraElement):
        raise UsageError("tensor expressions cannot be nested")


def evaluate(src: str, ctx: TwistContext, realization_case: str | None = None):
    return elaborate(parse(src), ctx, realization_case)

"""Perturbative re-expression of the universal R-matrix in Poincare
generators.

We look for r_1, r_2, ... with R = exp(r_1 + r_2 + ...), where r_k starts
at a0^k and is linear in the Lorentz generators (no momenta-only terms).
Order by order, the Baker-Campbell-Hausdorff remainder of the already-known
orders is matched against a rotation-invariant ansatz, with all comparisons
done in the canonical form modulo the flipped relation set R~ and the
twist parameter specialized to a rational value (1/2 for the standard
basis).

Rewriting never lowers an a0 grade, so the grade-k part of a canonical
form reads only the grades <= k of its input.  Order k is therefore solved
at truncation k: the earlier r's, the scaled ansatz terms and R~ are taken
at order k, R's canonical form is built once per context and truncated,
and only the grade-k parts are lifted back to the context's truncation N.
The exponential of the earlier r's, like R itself, is formed in canonical
form (`tensor.canonical_exp`): each of its powers is canonicalized as it is
built, so the fully expanded series never exists, and is kept on
representatives of its orbits under the permutations of the spatial axes,
which fix every r_k.  The exponential checks that invariance, so every
run checks the symmetry of the solved r's as it goes.
The ansatz is built by exponent arithmetic: a candidate gen*p^taken (x)
p^rest shifts the momentum exponents of the generator's terms, since a
momentum on the right contracts with nothing.  The column of order k
reads only a candidate's grade-0 part and r_k only its grades <= N - k,
so the generators are truncated at N - k before they are expanded.  The
columns are exponent arithmetic too (`_term_column`): at grade 0 the
rules of R~ move every coordinate of a left leg to the right leg
unchanged, so a column is the candidate's grade-0 part with each key
x^alpha p^beta (x) m sent to p^beta (x) x^alpha m, with no tensor
product and no `canonicalize`.  It is therefore the same in every case
and at every lambda; only the target depends on them.
The whole order-k identity sum_j c_j col_j == target is then solved once,
on its distinct coefficient rows (`linsolve.fit`); the number of generic
index patterns is reported beside the solution as its equation count.
At k = 3 the solution is a three-parameter family; `named_parameters`
reads its conventional labels (alpha1, beta1, alpha2) off the
coefficients.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import NamedTuple

from .algebra import DIM, ZERO_EXP, Monomial
from .hopf import TwistContext
from .linsolve import SolutionSpace, fit
from .poincare import SPATIAL, LorentzRealization, mhat, mij
from .scalars import GaussianRational, Scalar, UsageError
from .tensor import TensorElement, canonical_exp, tau0

I_NEG = GaussianRational(0, -1)


class AnsatzTerm(NamedTuple):
    """One rotation-invariant basis term of the order-k ansatz.

    `element` is the bare invariant sum (no a0 power, no -i), truncated at
    N - k (`_ansatz_order`); the candidate r_k is -i a0^k times a rational
    combination of these.
    """

    name: str
    element: TensorElement


class ExpansionResult(NamedTuple):
    order: int
    status: str  # unique | parametric | infeasible
    terms: list[AnsatzTerm]
    solution: SolutionSpace
    equations: int
    element: TensorElement | None  # r_k; None when infeasible

    @property
    def dimension(self) -> int:
        return self.solution.dimension


# -- ansatz enumeration --------------------------------------------------

# The ansatz's momentum labels are letters from 'i' on: a generator's
# frame indices (1 for the boost, 2 for M_ij) take the first ones, its
# dummy indices (each one contracted pair) the letters after them, and
# '0' names a time-like momentum.  They are written in alphabetical
# order, '0' last.
_FRAME_SIZE = {"boost": 1, "rotation": 2}


def _letters(start: int, stop: int) -> tuple[str, ...]:
    return tuple(chr(ord("i") + n) for n in range(start, stop))


# Momentum content per order; its total degree equals the order.  Every
# content with up to floor((k - frame)/2) contracted dummy pairs is listed,
# which spans the parity-even rotation invariants (the first fundamental
# theorem for O(3)); epsilon-contractions are parity-odd and left out.
def _content(kind: str, k: int) -> list[tuple[str, ...]]:
    f = _FRAME_SIZE[kind]
    base = _letters(0, f)
    remaining = k - f
    return [
        base
        + tuple(d for d in _letters(f, f + pairs) for _ in range(2))
        + ("0",) * (remaining - 2 * pairs)
        for pairs in range(remaining // 2 + 1)
    ]


def _sub_multisets(labels):
    """All distinct sub-multisets, as (taken, rest) label tuples."""
    seen = []
    n = len(labels)
    for mask in range(1 << n):
        taken = tuple(labels[b] for b in range(n) if mask >> b & 1)
        rest = tuple(labels[b] for b in range(n) if not mask >> b & 1)
        if (taken, rest) not in seen:
            seen.append((taken, rest))
    # prefer 'j' accompanying the generator so rotation representatives
    # come out in the conventional M_ij p_j ... form
    seen.sort(key=lambda tr: (len(tr[0]), tr[0].count("i"), tr[0]))
    return seen


def _momentum_exponents(labels, idx) -> tuple[int, ...]:
    """The exponents beta of the momentum monomial p^beta named by `labels`
    under `idx`."""
    beta = [0] * DIM
    for lab in labels:
        beta[idx[lab]] += 1
    return tuple(beta)


def _label_str(gname, labels):
    ordered = sorted(labels, key=lambda lab: (lab == "0", lab))
    factors = [gname] if gname else []
    pos = 0
    while pos < len(ordered):
        lab = ordered[pos]
        count = ordered.count(lab)
        sym = "p_" + lab
        factors.append(sym if count == 1 else f"{sym}^{count}")
        pos += count
    return "*".join(factors) if factors else "1"


def _expand_term(
    kind: str, taken: tuple, rest: tuple, side: str, gens: dict, order: int
) -> TensorElement:
    """The candidate gen*p^taken (x) p^rest (or its mirror), summed over the
    frames and dummy indices.

    A momentum monomial on the right contracts with nothing, so each term
    x^alpha p^gamma of the generator becomes x^alpha p^(gamma + taken) with
    its coefficient unchanged, and the other leg p^rest has coefficient 1:
    every term is an exponent shift of a generator term."""
    out: dict = {}
    base = _letters(0, _FRAME_SIZE[kind])
    dummies = sorted((set(taken) | set(rest)) - set(base) - {"0"})
    for frame in itertools.permutations(SPATIAL, len(base)):
        gen = gens[frame]
        for assign in itertools.product(SPATIAL, repeat=len(dummies)):
            idx = {"0": 0, **dict(zip(base, frame)), **dict(zip(dummies, assign))}
            shift = _momentum_exponents(taken, idx)
            other = Monomial(ZERO_EXP, _momentum_exponents(rest, idx))
            for (alpha, gamma), s in gen.terms.items():
                leg = Monomial(alpha, tuple(map(add, gamma, shift)))
                key = (leg, other) if side == "left" else (other, leg)
                cur = out.get(key)
                out[key] = s if cur is None else cur + s
    return TensorElement(out, order)


def _ansatz_order(k: int, ctx: TwistContext) -> int:
    """The truncation of the order-k ansatz terms: the order-k column,
    built from a term's grade-0 part by exponent arithmetic
    (`_term_column`), reads nothing above grade 0, and
    r_k = -i a0^k * (sum of c * term) only its grades <= N - k."""
    return max(ctx.order - k, 0)


def generate_ansatz(
    k: int, real: LorentzRealization, ctx: TwistContext
) -> list[AnsatzTerm]:
    """Complete rotation-invariant ansatz basis at order k, truncated at
    N - k (`assemble` lifts r_k back to N)."""
    if k < 1:
        raise UsageError("expansion order must be positive")
    order = _ansatz_order(k, ctx)
    # the generators by frame, each built once: the boost under (i,) and
    # M_ij under (i, j)
    gens = {(i,): mhat(i, real, ctx).at_order(order) for i in SPATIAL}
    for i, j in itertools.permutations(SPATIAL, 2):
        gens[(i, j)] = mij(i, j, ctx).at_order(order)
    out: list[AnsatzTerm] = []

    def push(term: AnsatzTerm):
        element, negated = term.element, -term.element
        if element and not any(t.element in (element, negated) for t in out):
            out.append(term)

    for kind, gname in (("boost", "Mh_i0"), ("rotation", "M_ij")):
        for content in _content(kind, k):
            for taken, rest in _sub_multisets(content):
                for side in ("left", "right"):
                    element = _expand_term(kind, taken, rest, side, gens, order)
                    gtext = _label_str(gname, taken)
                    otext = _label_str("", rest)
                    name = (
                        f"{gtext} ox {otext}"
                        if side == "left"
                        else f"{otext} ox {gtext}"
                    )
                    push(AnsatzTerm(name, element))
    return out


# -- targets and solving -------------------------------------------------


def _residual_at(prior: list[TensorElement], ctx: TwistContext, n: int) -> TensorElement:
    """R - exp(sum of r's) at truncation n <= N, canonical mod R~."""
    acc = TensorElement.zero(n)
    for r in prior:
        acc = acc + r.at_order(n)
    rtilde = ctx.Rtilde._replace(order=n)
    return ctx.rmatrix_canonical().at_order(n) - canonical_exp(acc, rtilde)


def bch_target(k: int, prior: list[TensorElement], ctx: TwistContext) -> TensorElement:
    """Order-a0^k part of R - exp(r_1 + ... + r_{k-1}), canonical mod R~."""
    if len(prior) != k - 1:
        raise UsageError("need exactly the r's of all lower orders")
    if k > ctx.order:
        raise UsageError("truncation order too low for this expansion order")
    return _residual_at(prior, ctx, k).grade_part(k).at_order(ctx.order)


def _term_column(term: AnsatzTerm, k: int, ctx: TwistContext) -> TensorElement:
    """Canonical -i a0^k * term mod R~, at truncation k: all of grade k.

    Built by exponent arithmetic, with no tensor product and no
    `canonicalize`.  The factor a0^k leaves only the term's grade-0 part
    below the truncation, and at grade 0 every rule of the twist family
    moves a coordinate across unchanged: the x0 rule is 1 (x) x0 + O(a0)
    and shift(d) is 1 (x) 1 + O(a0).  A coordinate multiplied onto the
    left of a normal-ordered right leg only adds to its x exponents, so
    each key x^alpha p^beta (x) x^gamma p^delta of the grade-0 part goes
    to p^beta (x) x^(alpha + gamma) p^delta with its coefficient."""
    out: dict = {}
    for (ml, mr), s in term.element.grade_part(0).terms.items():
        key = (
            Monomial(ZERO_EXP, ml.beta),
            Monomial(tuple(map(add, ml.alpha, mr.alpha)), mr.beta),
        )
        cur = out.get(key)
        out[key] = s if cur is None else cur + s
    n = ctx.order
    return TensorElement(out, term.element.order).at_order(n).scale(
        Scalar.graded(I_NEG, k, n)
    )


def _index_pattern(key):
    """Symbolic shape of a canonical monomial pair.

    Records where the coordinate factors sit, the timelike momentum powers
    and, for every participating spatial index, its (left power, right
    power, carries-x) profile as an unordered multiset -- the form in which
    the matching is done by hand, with contracted dummy indices treated as
    distinct symbols.
    """
    l, r = key
    xs = [
        (leg, mu)
        for leg, mono in (("L", l), ("R", r))
        for mu in range(4)
        for _ in range(mono.alpha[mu])
    ]
    sig_x = tuple(sorted((leg, mu == 0) for leg, mu in xs))
    classes = []
    for s in (1, 2, 3):
        has_x = any(mu == s for _, mu in xs)
        c = (l.beta[s], r.beta[s], has_x)
        if c != (0, 0, False):
            classes.append(c)
    return (sig_x, (l.beta[0], r.beta[0]), tuple(sorted(classes)))


def _is_generic(pat) -> bool:
    """True when every spatial dummy appears exactly as one contracted pair."""
    return all(l + r + hx <= 2 for (l, r, hx) in pat[2])


def solve_order(
    k: int,
    real: LorentzRealization,
    ctx: TwistContext,
    prior: list[TensorElement],
) -> ExpansionResult:
    """Match the order-k remainder with the ansatz and solve exactly.

    The whole order-k identity, index coincidences included, is solved
    once on its distinct coefficient rows.  `equations` counts the generic
    index patterns (contracted dummies distinct) of its canonical monomials,
    the equations of the matching done by hand.
    """
    if ctx.lam is None:
        raise UsageError("the expansion needs a rational twist parameter")
    target = bch_target(k, prior, ctx)
    terms = generate_ansatz(k, real, ctx)
    columns = [_term_column(t, k, ctx) for t in terms]
    keys = set(target.terms).union(*(col.terms for col in columns))
    equations = sum(map(_is_generic, {_index_pattern(key) for key in keys}))

    sol = fit(target, columns, (k,))
    solved = sol.status != "infeasible"
    element = assemble(terms, sol.particular, k, ctx) if solved else None
    return ExpansionResult(k, sol.status, terms, sol, equations, element)


def assemble(
    terms: list[AnsatzTerm], coeffs, k: int, ctx: TwistContext
) -> TensorElement:
    """r_k = -i a0^k * sum of coeff * term, lifted from the terms'
    truncation N - k to N."""
    n = ctx.order
    acc = TensorElement.zero(_ansatz_order(k, ctx))
    for t, c in zip(terms, coeffs):
        if c:
            acc = acc + t.element.scale(c)
    return acc.at_order(n).scale(Scalar.graded(I_NEG, k, n))


def expand(
    up_to: int, real: LorentzRealization, ctx: TwistContext
) -> list[ExpansionResult]:
    """Solve orders 1..up_to sequentially, feeding each solution forward.

    Stops early when an order is infeasible."""
    if up_to < 1:
        raise UsageError("expansion order must be positive")
    results = []
    prior: list[TensorElement] = []
    for k in range(1, up_to + 1):
        res = solve_order(k, real, ctx, prior)
        results.append(res)
        if res.status == "infeasible":
            break
        prior.append(res.element)
    return results


def residual_through(
    prior: list[TensorElement], ctx: TwistContext
) -> TensorElement:
    """R - exp(sum of r's), canonical mod R~ (grades beyond len(prior) are
    expected to survive)."""
    return _residual_at(prior, ctx, ctx.order)


def wedge_check(element: TensorElement) -> bool:
    """Wedge (flip-antisymmetric) structure: tau0(r) == -r."""
    return tau0(element) == -element


# -- named k=3 parameters ------------------------------------------------

# The three-parameter family at k=3 is conventionally labelled by
# alpha1, beta1, alpha2 read off from the coefficients of
# M_ij p_j p_0 (x) p_i, p_i (x) M_ij p_j p_0 and M_ij p_j (x) p_i p_0
# (times -24, +24, -24 with the -i a0^3 / 24 prefactor convention).
_PARAM_POSITIONS = (
    ("M_ij*p_j*p_0 ox p_i", -24),
    ("p_i ox M_ij*p_j*p_0", 24),
    ("M_ij*p_j ox p_i*p_0", -24),
)
PARAM_NAMES = ("alpha1", "beta1", "alpha2")


def named_parameters(result: ExpansionResult) -> dict[str, GaussianRational]:
    """Read (alpha1, beta1, alpha2) off a k=3 solution's coefficients."""
    if result.order != 3:
        raise UsageError("named parameters exist at order 3 only")
    if result.solution.particular is None:
        raise UsageError("named parameters need a solution; this order is infeasible")
    coeffs = {t.name: c for t, c in zip(result.terms, result.solution.particular)}
    out = {}
    for pname, (tname, factor) in zip(PARAM_NAMES, _PARAM_POSITIONS):
        out[pname] = coeffs[tname] * factor
    return out

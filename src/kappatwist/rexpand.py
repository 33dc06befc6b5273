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
at truncation k: the earlier r's and R~ are taken at order k, R's
canonical form is built once per context and truncated, and only the
grade-k parts are lifted back to the context's truncation N.
The exponential of the earlier r's, like R itself, is formed in canonical
form (`tensor.canonical_exp`): each of its powers is canonicalized as it is
built, so the fully expanded series never exists, and is kept on
representatives of its orbits under the permutations of the spatial axes,
which fix every r_k.  The exponential checks that invariance, so every
run checks the symmetry of the solved r's as it goes.
The ansatz is built by exponent arithmetic, in leg-flip pairs: a
candidate gen*p^taken (x) p^rest shifts the momentum exponents of the
generator's terms, since a momentum on the right contracts with nothing,
and its mirror p^rest (x) gen*p^taken is its `tau0`.  The column of order k
reads only a candidate's grade-0 part and r_k only its grades <= N - k,
so the generators are truncated at N - k before they are expanded.  The
columns are exponent arithmetic too (`_term_column`): at grade 0 the
rules of R~ move every coordinate of a left leg to the right leg
unchanged, so the order-k column is -i a0^k times the candidate's grade-0
numbers, each key x^alpha p^beta (x) m sent to p^beta (x) x^alpha m: no
tensor product, no `canonicalize`, and nothing that depends on k, the
case or lambda.  The whole order-k identity sum_j c_j col_j == target is
then solved once on {key: number} maps (`linsolve.fit`), the target's
grade-k numbers divided by -i; the number of generic index patterns is
reported beside the solution as its equation count.
The paper names some coefficients, c1, c2, d1, d2 at k = 1 and the
three-parameter family's alpha1, beta1, alpha2 at k = 3; `PAPER_NAMES`
is their one table, and `named_parameters` reads it.
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
from .tensor import TensorElement, canonical_exp, move_coordinates, tau0

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
def _letters(start: int, stop: int) -> tuple[str, ...]:
    return tuple(chr(ord("i") + n) for n in range(start, stop))


# Momentum content per order for a generator of f frame indices; its
# total degree equals the order.  Every content with up to
# floor((k - f)/2) contracted dummy pairs is listed, which spans the
# parity-even rotation invariants (the first fundamental theorem for
# O(3)); epsilon-contractions are parity-odd and left out.
def _content(f: int, k: int) -> list[tuple[str, ...]]:
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
    f: int, taken: tuple, rest: tuple, gens: dict, order: int
) -> TensorElement:
    """The candidate gen*p^taken (x) p^rest, summed over the generator's
    frames of f indices and the dummy indices.

    A momentum monomial on the right contracts with nothing, so each term
    x^alpha p^gamma of the generator becomes x^alpha p^(gamma + taken) with
    its coefficient unchanged, and the other leg p^rest has coefficient 1:
    every term is an exponent shift of a generator term."""
    out: dict = {}
    base = _letters(0, f)
    dummies = sorted((set(taken) | set(rest)) - set(base) - {"0"})
    for frame in itertools.permutations(SPATIAL, f):
        gen = gens[frame]
        for assign in itertools.product(SPATIAL, repeat=len(dummies)):
            idx = {"0": 0, **dict(zip(base, frame)), **dict(zip(dummies, assign))}
            shift = _momentum_exponents(taken, idx)
            other = Monomial(ZERO_EXP, _momentum_exponents(rest, idx))
            for (alpha, gamma), s in gen.terms.items():
                key = (Monomial(alpha, tuple(map(add, gamma, shift))), other)
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

    # each candidate and its leg flip, the generator on the left first
    for gname, f in (("Mh_i0", 1), ("M_ij", 2)):
        for content in _content(f, k):
            for taken, rest in _sub_multisets(content):
                element = _expand_term(f, taken, rest, gens, order)
                gtext, otext = _label_str(gname, taken), _label_str("", rest)
                push(AnsatzTerm(f"{gtext} ox {otext}", element))
                push(AnsatzTerm(f"{otext} ox {gtext}", tau0(element)))
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


def _term_column(term: AnsatzTerm) -> dict:
    """The numbers of the term's grade-0 part, each key moved by
    `tensor.move_coordinates`: canonical -i a0^k * term mod R~ at
    truncation k is -i a0^k times them, for every k.

    The factor a0^k leaves only the term's grade-0 part below the
    truncation, and at grade 0 every rule of the twist family moves a
    coordinate across unchanged: the x0 rule is 1 (x) x0 + O(a0) and
    shift(d) is 1 (x) 1 + O(a0)."""
    out: dict = {}
    for (ml, mr), s in term.element.terms.items():
        c = s.numeric_coefficient(0)
        if c:
            key = move_coordinates(ml, mr)
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    return out


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
    once on numbers: every column is -i a0^k times the numbers of
    `_term_column`, so the target's grade-k numbers are read once and
    divided by -i, which leaves the reduced echelon form, and so the
    solution, unchanged.  `equations` counts the generic index patterns
    (contracted dummies distinct) of its canonical monomials, the
    equations of the matching done by hand.
    """
    if ctx.lam is None:
        raise UsageError("the expansion needs a rational twist parameter")
    target = bch_target(k, prior, ctx)
    terms = generate_ansatz(k, real, ctx)
    columns = [_term_column(t) for t in terms]
    rhs = {}
    for key, s in target.terms.items():
        c = s.numeric_coefficient(k)
        rhs[key] = GaussianRational(-c.im, c.re)  # c / -i
    keys = set(rhs).union(*columns)
    equations = sum(map(_is_generic, {_index_pattern(key) for key in keys}))

    sol = fit(rhs, columns)
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


# -- the paper's names -----------------------------------------------------

# The coefficients the paper names, per order: (term, name, factor), the
# named value being factor times the term's coefficient.  At k = 3 the
# factors carry the paper's -i a0^3 / 24 prefactor convention.
PAPER_NAMES = {
    1: (
        ("Mh_i0 ox p_i", "c1", 1),
        ("Mh_i0*p_i ox 1", "c2", 1),
        ("1 ox Mh_i0*p_i", "d1", 1),
        ("p_i ox Mh_i0", "d2", 1),
    ),
    3: (
        ("M_ij*p_j*p_0 ox p_i", "alpha1", -24),
        ("p_i ox M_ij*p_j*p_0", "beta1", 24),
        ("M_ij*p_j ox p_i*p_0", "alpha2", -24),
    ),
}


def named_parameters(result: ExpansionResult) -> dict[str, GaussianRational]:
    """The paper's names (`PAPER_NAMES`) for the coefficients of a solved
    order, read off its particular solution."""
    names = PAPER_NAMES.get(result.order)
    if names is None:
        raise UsageError(f"the paper names no coefficients at order {result.order}")
    if result.solution.particular is None:
        raise UsageError("named parameters need a solution; this order is infeasible")
    coeffs = {t.name: c for t, c in zip(result.terms, result.solution.particular)}
    return {name: coeffs[term] * factor for term, name, factor in names}

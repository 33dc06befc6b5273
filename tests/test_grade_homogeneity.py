"""Every term of the twist, the R-matrix, the generator coproducts and the
re-expansion carries an a0 grade fixed by its momentum and coordinate
degrees: grade - (p-degree - x-degree), the degrees summed over both legs,
is one constant per element.  A product that adds the grades of its keys
and stops a pair above the truncation rests on that."""

from fractions import Fraction

import pytest

from kappatwist.hopf import GENERATORS, TwistContext
from kappatwist.poincare import realization
from kappatwist.rexpand import bch_target, generate_ansatz, solve_order
from paper_reference import term_column_by_canonicalize


def grade_offsets(t) -> set[int]:
    """grade - (p-degree - x-degree) over every key of a two-leg tensor and
    every a0 grade of its coefficient."""
    out = set()
    for (left, right), s in t.terms.items():
        degree = sum(left.beta) + sum(right.beta) - sum(left.alpha) - sum(right.alpha)
        out |= {grade - degree for grade, _ in s.terms}
    return out


# x raises the offset by one, p lowers it; A = a0 p0, S = x.p and Z = exp(A)
# keep it
_GENERATOR_OFFSET = {"x": 1, "p": -1, "A": 0, "S": 0, "Z": 0}


@pytest.mark.parametrize("lam", [None, Fraction(1, 3)], ids=["sym", "1/3"])
def test_twist_rmatrix_and_generator_coproducts_are_homogeneous(lam):
    ctx = TwistContext(order=4, lam=lam)
    for name, t in (
        ("twist", ctx.twist()),
        ("rmatrix", ctx.rmatrix()),
        ("rmatrix_canonical", ctx.rmatrix_canonical()),
    ):
        assert grade_offsets(t) == {0}, name
    for name in GENERATORS:
        offsets = grade_offsets(ctx.generator_coproduct(name))
        assert offsets == {_GENERATOR_OFFSET[name[0]]}, name


def test_targets_columns_and_solutions_of_case_ii_are_homogeneous():
    ctx = TwistContext(order=4, lam=Fraction(1, 2))
    real = realization("ii", ctx)
    prior, nonzero = [], []
    for k in range(1, 5):
        target = bch_target(k, prior, ctx)
        for term in generate_ansatz(k, real, ctx):
            column = term_column_by_canonicalize(term, k, ctx)
            assert grade_offsets(column) == {0}, (k, term.name)
        r_k = solve_order(k, real, ctx, prior).element
        # at lam = 1/2 the even-order targets, and so r_2 and r_4, are zero
        for t in (target, r_k):
            if t:
                assert grade_offsets(t) == {0}, k
                nonzero.append(k)
        prior.append(r_k)
    assert nonzero == [1, 1, 3, 3]

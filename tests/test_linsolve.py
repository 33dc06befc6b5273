"""Exact linear solver: unique / parametric / infeasible verdicts and
solution correctness."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist import linsolve
from kappatwist.algebra import AlgebraElement, p, x
from kappatwist.linsolve import ExactMatrix, coefficient_rows, fit, solve
from kappatwist.scalars import GR_ONE, GR_ZERO, GaussianRational, Scalar, UsageError

entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))

# a few basis elements and small Gaussian coefficients at a0 grades 0 and
# 1, so that equal rows and infeasible fits both come up often
_BASIS = [x(1, 1), x(2, 1), p(0, 1), p(1, 1), x(1, 1) * p(1, 1)]
_TERMS = st.tuples(
    st.integers(0, len(_BASIS) - 1),
    st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1)),
    st.integers(0, 1),
)


def _element(terms) -> AlgebraElement:
    acc = AlgebraElement.zero(1)
    for index, value, grade in terms:
        acc = acc + _BASIS[index].scale(Scalar.graded(value, grade, 1))
    return acc


elements = st.lists(_TERMS, max_size=8).map(_element)


def _mat_vec(rows, vec):
    return [
        sum((GaussianRational(a) * v for a, v in zip(row, vec)),
            GaussianRational(0))
        for row in rows
    ]


class TestVerdicts:
    def test_unique(self):
        sol = solve([[1, 1], [1, -1]], [3, 1])
        assert sol.status == "unique"
        assert sol.particular == [GaussianRational(2), GaussianRational(1)]
        assert sol.dimension == 0

    def test_parametric(self):
        sol = solve([[1, 1, 0]], [1])
        assert sol.status == "parametric"
        assert sol.dimension == 2
        assert sol.free_columns == [1, 2]

    def test_infeasible(self):
        sol = solve([[1, 1], [2, 2]], [1, 3])
        assert sol.status == "infeasible"
        assert sol.particular is None

    def test_gaussian_entries(self):
        i = GaussianRational(0, 1)
        sol = solve([[i]], [GaussianRational(1)])
        assert sol.status == "unique"
        assert sol.particular == [-i]

    def test_empty_columns(self):
        sol = solve([[0, 0]], [0])
        assert sol.status == "parametric"
        assert sol.dimension == 2

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            solve([[1, 2]], [1, 2])
        with pytest.raises(UsageError):
            ExactMatrix([[1, 2], [1]])


class TestCorrectness:
    @given(
        st.lists(
            st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=4
        ),
        st.lists(entries, min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_constructed_systems_are_solved(self, rows, hidden):
        rhs = _mat_vec(rows, [GaussianRational(v) for v in hidden])
        sol = solve(rows, rhs)
        assert sol.status in ("unique", "parametric")
        assert _mat_vec(rows, sol.particular) == rhs
        for vec in sol.nullspace:
            assert all(not v for v in _mat_vec(rows, vec))

    @given(
        st.lists(
            st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=4
        ),
        st.lists(entries, min_size=2, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_infeasible_verdict_is_honest(self, rows, rhs):
        if len(rhs) != len(rows):
            return
        sol = solve(rows, rhs)
        if sol.status == "infeasible":
            # rank of augmented exceeds rank of plain matrix
            plain = solve(rows, [0] * len(rows))
            assert plain.status in ("unique", "parametric")
        else:
            assert _mat_vec(rows, sol.particular) == [
                GaussianRational(v) for v in rhs
            ]

    def test_rank_reported(self):
        sol = solve([[1, 2], [2, 4], [0, 1]], [1, 2, 0])
        assert sol.rank == 2
        assert sol.status == "unique"


class TestCoefficientRows:
    N = 2

    def test_rows_sorted_and_zero_rows_left_out(self):
        n = self.N
        a0 = Scalar.a0(n)
        col0 = x(1, n) + p(1, n).scale(a0)
        col1 = x(1, n).scale(2)
        # p2 sits at grade 2 only, outside the grades read below
        target = x(1, n).scale(3) + p(1, n).scale(a0) + p(2, n).scale(a0 * a0)
        rows = coefficient_rows(target, [col0, col1], (0, 1))
        (key_x1,), (key_p1,) = x(1, n).terms, p(1, n).terms
        assert key_p1 < key_x1
        assert list(rows) == [(key_p1, 1), (key_x1, 0)]
        assert rows[(key_p1, 1)] == ((GR_ONE, GR_ZERO), GR_ONE)
        assert rows[(key_x1, 0)] == (
            (GR_ONE, GaussianRational(2)),
            GaussianRational(3),
        )
        equations = rows.values()
        sol = solve([r for r, _ in equations], [v for _, v in equations])
        assert sol.status == "unique"
        assert sol.particular == [GR_ONE, GR_ONE]

    def test_symbolic_coefficient_raises(self):
        n = self.N
        col = x(1, n).scale(Scalar.lam(n))
        with pytest.raises(UsageError, match="symbolic twist parameter leaked"):
            coefficient_rows(x(1, n), [col], (0,))


class TestFit:
    @given(elements, st.lists(elements, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_fit_solves_the_whole_system_on_distinct_rows(self, target, columns):
        equations = list(coefficient_rows(target, columns, (0, 1)).values())
        whole = solve([r for r, _ in equations], [v for _, v in equations])
        with mock.patch.object(linsolve, "solve", wraps=linsolve.solve) as spy:
            assert fit(target, columns, (0, 1)) == whole
        ((rows, rhs), _), = spy.call_args_list
        handed = list(zip(rows, rhs))
        assert len(set(handed)) == len(handed)
        assert set(handed) == set(equations)

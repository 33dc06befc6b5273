"""Exact linear solver: unique / parametric / infeasible verdicts and
solution correctness."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappatwist import linsolve
from kappatwist.algebra import AlgebraElement, p, x
from kappatwist.hopf import TwistContext
from kappatwist.linsolve import ExactMatrix, coefficient_rows, fit, solve
from kappatwist.poincare import realization
from kappatwist.rexpand import _term_column, bch_target, expand
from kappatwist.scalars import (
    GR_ONE,
    GR_ZERO,
    LP_LAM,
    GaussianRational,
    Scalar,
    UsageError,
    as_gaussian,
)

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
        assert sol.nullspace == [
            [GaussianRational(-1), GR_ONE, GR_ZERO],
            [GR_ZERO, GR_ZERO, GR_ONE],
        ]

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
        col = x(1, n).scale(Scalar.from_value(LP_LAM, n))
        with pytest.raises(UsageError, match="symbolic twist parameter leaked"):
            coefficient_rows(x(1, n), [col], (0,))


class TestFit:
    @given(elements, st.lists(elements, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_fit_solves_the_whole_system_on_distinct_rows(self, target, columns):
        equations = list(coefficient_rows(target, columns, (0, 1)).values())
        # with no row left, the system is 0 = 0 in len(columns) unknowns
        equations = equations or [((GR_ZERO,) * len(columns), GR_ZERO)]
        whole = solve([r for r, _ in equations], [v for _, v in equations])
        with mock.patch.object(linsolve, "solve", wraps=linsolve.solve) as spy:
            assert fit(target, columns, (0, 1)) == whole
        ((rows, rhs), _), = spy.call_args_list
        handed = list(zip(rows, rhs))
        assert len(set(handed)) == len(handed)
        assert set(handed) == set(equations)

    def test_no_surviving_row_leaves_every_column_free(self):
        zero = AlgebraElement.zero(1)
        sol = fit(zero, [zero, zero], (1,))
        assert sol.status == "parametric"
        assert sol.particular == [GR_ZERO, GR_ZERO]
        assert sol.nullspace == [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]]
        assert sol.rank == 0
        assert sol == solve([[0, 0]], [0])

    def test_zero_target_with_a_nonzero_column(self):
        zero = AlgebraElement.zero(1)
        sol = fit(zero, [x(1, 1), zero], (0,))
        assert sol.status == "parametric"
        assert sol.particular == [GR_ZERO, GR_ZERO]
        assert sol.nullspace == [[GR_ZERO, GR_ONE]]
        assert sol.rank == 1


# -- support-only elimination and one-pass rows against the dense forms ----
#
# The oracles are `solve` and `coefficient_rows` as they were before the
# elimination touched only the pivot row's support and the rows were read
# in one pass over each element's terms.


def _dense_solve(matrix, rhs) -> linsolve.SolutionSpace:
    a = ExactMatrix(matrix)
    b = [as_gaussian(v) for v in rhs]
    n, m = a.nrows, a.ncols
    rows = [list(row) + [b[i]] for i, row in enumerate(a.rows)]
    pivots = []
    r = 0
    for c in range(m):
        pivot_row = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    rank = len(pivots)
    if any(rows[i][m] for i in range(rank, n)):
        return linsolve.SolutionSpace("infeasible", None, rank=rank)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(m) if c not in pivot_cols]
    particular = [GR_ZERO] * m
    for row_i, col in pivots:
        particular[col] = rows[row_i][m]
    nullspace = []
    for fc in free_cols:
        vec = [GR_ZERO] * m
        vec[fc] = GR_ONE
        for row_i, col in pivots:
            vec[col] = -rows[row_i][fc]
        nullspace.append(vec)
    status = "unique" if not free_cols else "parametric"
    return linsolve.SolutionSpace(status, particular, nullspace, rank)


def _dense_coefficient_rows(target, columns, grades) -> dict:
    keys = set(target.terms)
    for col in columns:
        keys.update(col.terms)
    out = {}
    for key in sorted(keys):
        coeffs = [col.coefficient(key) for col in columns]
        value = target.coefficient(key)
        for grade in grades:
            row = tuple(c.numeric_coefficient(grade) for c in coeffs)
            val = value.numeric_coefficient(grade)
            if val or any(row):
                out[(key, grade)] = (row, val)
    return out


_GAUSSIAN = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.integers(-2, 2),
)
# mostly zeros, so that the pivot rows are sparse
_SPARSE = st.one_of(st.just(GR_ZERO), st.just(GR_ZERO), _GAUSSIAN)


@st.composite
def sparse_systems(draw):
    """A sparse system with some rows and columns zeroed, and a right-hand
    side that is either A times a hidden vector or drawn at random."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 7))
    rows = [[draw(_SPARSE) for _ in range(m)] for _ in range(n)]
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    rows = [
        [GR_ZERO if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    if draw(st.booleans()):
        hidden = [draw(_GAUSSIAN) for _ in range(m)]
        rhs = [sum((a * h for a, h in zip(row, hidden)), GR_ZERO) for row in rows]
    else:
        rhs = [draw(_SPARSE) for _ in range(n)]
    return rows, rhs


def _fields(sol):
    return sol.status, sol.particular, sol.nullspace, sol.rank


class TestAgainstDenseOracles:
    @given(sparse_systems())
    @example(([[1, 1], [1, -1]], [3, 1]))  # unique
    @example(([[0, 2, 0], [0, 0, 0], [0, 4, 0]], [1, 0, 2]))  # parametric
    @example(([[1, 0], [2, 0]], [1, 3]))  # infeasible
    @settings(max_examples=200, deadline=None)
    def test_solve_matches_dense_elimination(self, system):
        rows, rhs = system
        assert _fields(solve(rows, rhs)) == _fields(_dense_solve(rows, rhs))

    @pytest.mark.parametrize(
        "case, lam, n",
        [
            ("i", Fraction(1, 3), 3),
            ("i", Fraction(1, 2), 3),
            ("ii", Fraction(1, 2), 4),
            ("iii", Fraction(1, 2), 3),
        ],
    )
    def test_rexpand_rows_and_solutions_match(self, case, lam, n):
        ctx = TwistContext(order=n, lam=lam)
        prior = []
        for res in expand(n, realization(case, ctx), ctx):
            k = res.order
            target = bch_target(k, prior, ctx)
            columns = [_term_column(t, k, ctx) for t in res.terms]
            rows = coefficient_rows(target, columns, (k,))
            assert list(rows.items()) == list(
                _dense_coefficient_rows(target, columns, (k,)).items()
            ), (case, k)
            equations = rows.values()
            matrix, rhs = [r for r, _ in equations], [v for _, v in equations]
            assert _fields(solve(matrix, rhs)) == _fields(_dense_solve(matrix, rhs))
            if res.status != "infeasible":
                prior.append(res.element)

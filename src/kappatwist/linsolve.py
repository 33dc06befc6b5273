"""Exact linear algebra over the Gaussian rationals.

Gaussian elimination with deterministic pivoting (first nonzero entry in
column order), returning a `SolutionSpace`: a unique solution, a particular
solution plus a nullspace basis, or an infeasibility verdict.  The rows
are dense lists, but each elimination step touches only the columns where
its pivot row is nonzero.  `fit` solves an exact fit of sparse
{key: number} maps, one row per key, on its distinct rows.  Entries must
be exact numbers (`scalars.as_gaussian`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .scalars import GR_ONE, GR_ZERO, GaussianRational, UsageError, as_gaussian


class ExactMatrix:
    """Dense rows x cols matrix of GaussianRational entries."""

    def __init__(self, rows):
        data = [[as_gaussian(v) for v in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise UsageError("ragged matrix rows")
        self.rows = data

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


class SolutionSpace(NamedTuple):
    """Solution set of A x = b.

    status is one of 'unique', 'parametric', 'infeasible'.  For solvable
    systems `particular` is an exact solution and `nullspace` a basis of
    the homogeneous solutions (empty when unique).
    """

    status: str
    particular: list[GaussianRational] | None
    nullspace: Sequence[list[GaussianRational]] = ()
    rank: int = 0

    @property
    def dimension(self) -> int:
        return len(self.nullspace)


def solve(matrix, rhs) -> SolutionSpace:
    """Solve A x = b exactly; accepts ExactMatrix or nested sequences."""
    a = matrix if isinstance(matrix, ExactMatrix) else ExactMatrix(matrix)
    b = [as_gaussian(v) for v in rhs]
    if len(b) != a.nrows:
        raise UsageError("right-hand side length does not match row count")
    n, m = a.nrows, a.ncols
    # Augmented working copy.
    rows = [list(row) + [b[i]] for i, row in enumerate(a.rows)]

    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(m):
        pivot_row = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        # left of c the pivot row is zero: its earlier pivot columns are
        # eliminated, and the other columns had no entry in rows r.. when
        # they were passed
        support = [j for j in range(c, m + 1) if pivot[j]]
        inv = pivot[c].inverse()
        for j in support:
            pivot[j] = pivot[j] * inv
        for i in range(n):
            row = rows[i]
            if i != r and row[c]:
                factor = row[c]
                for j in support:
                    row[j] = row[j] - factor * pivot[j]
        pivots.append((r, c))
        r += 1
        if r == n:
            break
    rank = len(pivots)

    if any(rows[i][m] for i in range(rank, n)):
        return SolutionSpace("infeasible", None, rank=rank)

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
    return SolutionSpace(status, particular, nullspace, rank)


def fit(target, columns) -> SolutionSpace:
    """Solve sum_j x_j * columns[j] = target for sparse maps {key: exact
    number}, a missing key standing for zero.

    Each key of the target or of a column, in sorted key order, gives one
    equation; the zero ones are left out, and the rest are solved on their
    distinct rows, keyed on packed triples: the reduced echelon form that
    `solve` reaches depends only on the row space, so this is the solution
    of the whole system."""
    by_key: dict = {}
    for j, col in enumerate(columns):
        for key, value in col.items():
            by_key.setdefault(key, {})[j] = value
    width = len(columns)
    distinct = {}
    for key in sorted(by_key.keys() | target.keys()):
        row = [GR_ZERO] * width
        for j, value in by_key.get(key, {}).items():
            row[j] = as_gaussian(value)
        val = as_gaussian(target.get(key, GR_ZERO))
        if val or any(row):
            packed = (*(c.triple for c in row), val.triple)
            distinct.setdefault(packed, (tuple(row), val))
    if not distinct:
        # no row survives: one zero row keeps all len(columns) unknowns free
        return solve([(GR_ZERO,) * width], [GR_ZERO])
    equations = distinct.values()
    return solve([row for row, _ in equations], [val for _, val in equations])

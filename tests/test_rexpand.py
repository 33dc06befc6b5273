"""Perturbative R-matrix re-expression: ansatz enumeration, order-by-order
solving, golden third-order family, and the negative result."""

import itertools
import json
from fractions import Fraction
from unittest import mock

import pytest

from kappatwist import cli, rexpand
from kappatwist.algebra import DIM, ZERO_EXP, AlgebraElement, Monomial, p
from kappatwist.hopf import TwistContext
from kappatwist.linsolve import SolutionSpace, solve
from kappatwist.poincare import SPATIAL, mhat, mij, realization
from kappatwist.rexpand import (
    I_NEG,
    _content,
    _index_pattern,
    _is_generic,
    _label_str,
    _momentum_exponents,
    _sub_multisets,
    _term_column,
    assemble,
    bch_target,
    expand,
    generate_ansatz,
    named_parameters,
    residual_through,
    solve_order,
    wedge_check,
)
from kappatwist.scalars import (
    GR_ONE,
    GR_ZERO,
    LP_LAM,
    GaussianRational,
    Scalar,
    UsageError,
)
from kappatwist.tensor import TensorElement, canonicalize, equal_mod, t_exp, tensor
from paper_reference import (
    coefficient_rows,
    coefficient_wedge_check,
    particular_coefficients,
    reference_third_order,
    specialize,
    specialize_coefficients,
    term_column_by_canonicalize,
)


@pytest.fixture(scope="module")
def ctx():
    return TwistContext(order=3, lam=Fraction(1, 2))


@pytest.fixture(scope="module")
def real(ctx):
    return realization("ii", ctx)


@pytest.fixture(scope="module")
def results(ctx, real):
    return expand(3, real, ctx)


class TestAnsatz:
    def test_counts(self, ctx, real):
        assert len(generate_ansatz(1, real, ctx)) == 4
        assert len(generate_ansatz(2, real, ctx)) == 10
        assert len(generate_ansatz(3, real, ctx)) == 28

    def test_first_order_terms(self, ctx, real):
        names = {t.name for t in generate_ansatz(1, real, ctx)}
        assert names == {
            "Mh_i0 ox p_i",
            "p_i ox Mh_i0",
            "Mh_i0*p_i ox 1",
            "1 ox Mh_i0*p_i",
        }

    def test_bad_order(self, ctx, real):
        with pytest.raises(UsageError):
            generate_ansatz(0, real, ctx)

    def test_rotations_built_once(self, ctx, real):
        with mock.patch.object(rexpand, "mij", wraps=rexpand.mij) as spy:
            terms = generate_ansatz(3, real, ctx)
        assert any("M_ij" in t.name for t in terms)
        assert spy.call_count <= 6


class TestSolve:
    def test_equation_counts(self, results):
        assert [r.equations for r in results] == [7, 16, 35]

    def test_first_order_unique(self, results):
        r1 = results[0]
        assert r1.status == "unique"
        coeffs = {k: v for k, v in particular_coefficients(r1).items() if v}
        assert coeffs == {
            "Mh_i0 ox p_i": GaussianRational(-1),
            "p_i ox Mh_i0": GaussianRational(1),
        }

    def test_second_order_zero(self, results):
        r2 = results[1]
        assert r2.status == "unique"
        assert all(not v for v in particular_coefficients(r2).values())
        assert r2.element.is_zero()

    def test_third_order_parametric(self, results):
        r3 = results[2]
        assert r3.status == "parametric"
        assert r3.dimension == 3

    def test_substitution_through_third_order(self, ctx, results):
        residual = residual_through([r.element for r in results], ctx)
        for k in (1, 2, 3):
            assert residual.grade_part(k).is_zero(), k

    def test_prior_orders_required(self, ctx, real):
        with pytest.raises(UsageError):
            solve_order(2, real, ctx, [])


class TestThirdOrderFamily:
    def test_matches_reference_for_several_parameters(self, ctx, real, results):
        r3 = results[2]
        for params in ((-6, -6, -2), (0, 0, 0), (1, 2, 3), (Fraction(1, 2), -1, Fraction(5, 3))):
            ours = specialize(r3, *params, ctx)
            ref = reference_third_order(*params, real, ctx)
            assert equal_mod(ours, ref, ctx.Rtilde), params

    def test_named_parameters_roundtrip(self, results):
        r3 = results[2]
        assert list(named_parameters(r3)) == ["alpha1", "beta1", "alpha2"]
        coeffs = specialize_coefficients(r3, -6, -6, -2)
        assert coeffs["M_ij*p_j*p_0 ox p_i"] * -24 == GaussianRational(-6)
        assert coeffs["p_i ox M_ij*p_j*p_0"] * 24 == GaussianRational(-6)
        assert coeffs["M_ij*p_j ox p_i*p_0"] * -24 == GaussianRational(-2)

    def test_wedge_structure(self, ctx, results):
        r1, _, r3 = results
        assert wedge_check(r1.element)
        assert coefficient_wedge_check(particular_coefficients(r1))
        # alpha1 == beta1 gives the flip-antisymmetric coefficient tables
        assert coefficient_wedge_check(specialize_coefficients(r3, -6, -6, -2))
        assert coefficient_wedge_check(specialize_coefficients(r3, 4, 4, 1))
        assert not coefficient_wedge_check(specialize_coefficients(r3, 1, 2, 3))
        # the assembled members remain flip-antisymmetric either way
        assert wedge_check(specialize(r3, -6, -6, -2, ctx))
        assert wedge_check(specialize(r3, 1, 2, 3, ctx))


class TestPaperNames:
    def test_first_order_names_are_the_cli_keys(self, results, capsys):
        named = named_parameters(results[0])
        assert list(named) == ["c1", "c2", "d1", "d2"]
        assert cli.run(["rexpand", "--order", "1", "--case", "ii"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {k: str(v) for k, v in named.items()} == {k: payload[k] for k in named}

    def test_unnamed_order_raises(self, results):
        with pytest.raises(UsageError, match="names no coefficients at order 2"):
            named_parameters(results[1])


class TestCaseIII:
    def test_third_order_infeasible(self):
        ctx = TwistContext(order=3, lam=Fraction(1, 2))
        real = realization("iii", ctx)
        results = expand(3, real, ctx)
        assert [r.status for r in results] == ["unique", "unique", "infeasible"]
        assert results[2].equations == 35

    def test_named_parameters_need_a_solution(self):
        ctx = TwistContext(order=3, lam=Fraction(1, 2))
        infeasible = expand(3, realization("iii", ctx), ctx)[-1]
        assert infeasible.status == "infeasible"
        with pytest.raises(UsageError, match="infeasible"):
            named_parameters(infeasible)


def test_results_are_built_once(results):
    """An expansion result and its solution space are immutable records."""
    for record, name in ((results[0], "element"), (results[0].solution, "particular")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


class TestSymbolicRejected:
    def test_requires_rational_lambda(self):
        ctx = TwistContext(order=2)
        real = realization("i", ctx)
        with pytest.raises(UsageError):
            solve_order(1, real, ctx, [])

    def test_symbolic_coefficient_raises(self):
        """The numbers of the order-k system are read through
        `Scalar.numeric_coefficient`, which refuses a lambda that leaked
        into them: a column's grade-0 numbers and the target's grade-k
        numbers."""
        n = 2
        lam = Scalar.from_value(LP_LAM, n)
        leaked = tensor(p(1, n).scale(lam), AlgebraElement.one(n))
        with pytest.raises(UsageError, match="symbolic twist parameter leaked"):
            _term_column(rexpand.AnsatzTerm("lam*p_1 ox 1", leaked))
        ctx = TwistContext(order=n, lam=Fraction(1, 2))
        target = leaked.scale(Scalar.a0(n))
        with mock.patch.object(rexpand, "bch_target", return_value=target):
            with pytest.raises(UsageError, match="symbolic twist parameter leaked"):
                solve_order(1, realization("ii", ctx), ctx, [])


# -- solving order k at truncation k ---------------------------------------


@pytest.fixture(scope="module")
def ctx4():
    return TwistContext(order=4, lam=Fraction(1, 2))


@pytest.fixture(scope="module")
def results4(ctx4):
    return expand(4, realization("ii", ctx4), ctx4)


class TestMomentumProduct:
    def test_direct_monomials_match_products(self):
        n = 4
        for k, f in itertools.product((1, 2, 3, 4), (1, 2)):
            for content in _content(f, k):
                # the content itself and both sides of every split of it
                label_tuples = {content}.union(*_sub_multisets(content))
                spatial = sorted(set(content) - {"0"})
                for values in itertools.product(SPATIAL, repeat=len(spatial)):
                    idx = {"0": 0, **dict(zip(spatial, values))}
                    for labels in label_tuples:
                        product = AlgebraElement.one(n)
                        for lab in labels:
                            product = product * p(idx[lab], n)
                        mono = Monomial(ZERO_EXP, _momentum_exponents(labels, idx))
                        assert AlgebraElement.monomial(mono, n) == product


def _concrete_equations(columns, target, k):
    """One (row, value) equation per canonical key of the order-k identity."""
    keys = set(target.terms)
    for col in columns:
        keys.update(col.terms)
    out = []
    for key in sorted(keys):
        row = tuple(col.coefficient(key).numeric_coefficient(k) for col in columns)
        val = target.coefficient(key).numeric_coefficient(k)
        if any(row) or val:
            out.append((row, val))
    return out


def _row_check(sol, concrete) -> bool:
    """The concrete-equation loop the whole-tensor checks replace."""
    vectors = [(sol.particular, True)] + [(v, False) for v in sol.nullspace]
    for row, val in concrete:
        for vec, inhom in vectors:
            acc = GR_ZERO
            for a, b in zip(row, vec):
                acc = acc + a * b
            if acc != (val if inhom else GR_ZERO):
                return False
    return True


def _combination(elements: list[TensorElement], coeffs, order: int) -> TensorElement:
    """sum of coeff * element over the nonzero coefficients."""
    acc = TensorElement.zero(order)
    for e, c in zip(elements, coeffs):
        if c:
            acc = acc + e.scale(c)
    return acc


def _check_solution(
    sol: SolutionSpace, columns: list[TensorElement], target: TensorElement
) -> None:
    """The generic-pattern solution must solve the whole order-k identity
    sum_j c_j col_j == target, index coincidences included: the particular
    solution exactly, and every nullspace vector with a zero sum."""
    n = target.order
    if _combination(columns, sol.particular, n) != target or any(
        _combination(columns, v, n) for v in sol.nullspace
    ):
        raise UsageError("generic-pattern solution violates a coincidence equation")


def _tensor_check(sol, columns, target) -> bool:
    try:
        _check_solution(sol, columns, target)
    except UsageError:
        return False
    return True


def _bumped(vec, j):
    return [c + GR_ONE if i == j else c for i, c in enumerate(vec)]


class TestSolutionChecks:
    def test_row_loop_and_tensor_checks_agree(self, ctx4, results4):
        assert [r.status for r in results4] == [
            "unique", "unique", "parametric", "parametric"
        ]
        prior = []
        for res in results4:
            k = res.order
            target = bch_target(k, prior, ctx4)
            columns = [term_column_by_canonicalize(t, k, ctx4) for t in res.terms]
            concrete = _concrete_equations(columns, target, k)
            sol = res.solution
            assert _row_check(sol, concrete)
            assert _tensor_check(sol, columns, target)
            j = next(i for i, col in enumerate(columns) if col)
            wrong = sol._replace(particular=_bumped(sol.particular, j))
            assert not _row_check(wrong, concrete)
            assert not _tensor_check(wrong, columns, target)
            if sol.nullspace:
                v = sol.nullspace[0]
                j = next(i for i, col in enumerate(columns) if col and v[i])
                nullspace = [_bumped(v, j)] + sol.nullspace[1:]
                wrong = sol._replace(nullspace=nullspace)
                assert not _row_check(wrong, concrete)
                assert not _tensor_check(wrong, columns, target)
            prior.append(res.element)


def _full_order_target(k, prior, ctx):
    """The order-k target computed at the context's full truncation."""
    acc = TensorElement.zero(ctx.order)
    for r in prior:
        acc = acc + r
    return canonicalize(ctx.rmatrix() - t_exp(acc), ctx.Rtilde).grade_part(k)


class TestTruncationAtK:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("case", ["ii", "iii"])
    def test_target_matches_full_order_formula(self, n, case):
        ctx = TwistContext(order=n, lam=Fraction(1, 2))
        real = realization(case, ctx)
        solved = [
            r.element for r in expand(n - 1, real, ctx) if r.status != "infeasible"
        ]
        # where an order has no solution (case iii from order 3 on), any
        # element of that grade serves as the prior
        prior = list(solved)
        for j in range(len(solved) + 1, n):
            terms = generate_ansatz(j, real, ctx)
            prior.append(assemble(terms, [GR_ONE] * len(terms), j, ctx))
        for k in range(1, n + 1):
            want = _full_order_target(k, prior[: k - 1], ctx)
            assert bch_target(k, prior[: k - 1], ctx) == want, (n, case, k)


def _permute_axes(key, g):
    """The key with the spatial axes permuted by g, on x and p of both legs."""

    def move(e):
        return (e[0], *(e[i] for i in g))

    return tuple(Monomial(move(m.alpha), move(m.beta)) for m in key)


class TestReferenceFree:
    def test_fourth_order_residual_vanishes(self, ctx4, results4):
        residual = residual_through([r.element for r in results4], ctx4)
        for j in (1, 2, 3, 4):
            assert residual.grade_part(j).is_zero(), j

    @pytest.mark.parametrize(
        "case, lam, n, solved",
        [
            ("ii", Fraction(1, 2), 4, 4),
            ("ii", Fraction(1, 2), 5, 5),
            ("i", Fraction(1, 3), 4, 4),
            ("iii", Fraction(1, 2), 3, 2),
        ],
        ids=["ii", "ii-5", "i-1/3", "iii"],
    )
    def test_solved_orders_are_spatially_symmetric(self, case, lam, n, solved):
        # the twist treats the spatial axes alike and every ansatz term sums
        # over its frames and dummy indices, so each r_k is invariant under
        # permutations of the axes, and even in each axis
        ctx = TwistContext(order=n, lam=lam)
        results = expand(n, realization(case, ctx), ctx)
        elements = [r.element for r in results if r.status != "infeasible"]
        assert len(elements) == solved
        for k, r in enumerate(elements, 1):
            for g in itertools.permutations(SPATIAL):
                permuted = {_permute_axes(key, g): s for key, s in r.terms.items()}
                assert permuted == r.terms, (k, g)
            for ml, mr in r.terms:
                for i in SPATIAL:
                    degree = ml.alpha[i] + ml.beta[i] + mr.alpha[i] + mr.beta[i]
                    assert degree % 2 == 0, (k, ml, mr)

    @pytest.mark.parametrize(
        "case, lam, k",
        [*(("ii", "1/2", k) for k in range(1, 6)), ("i", "1/3", 3), ("iii", "1/2", 3)],
        ids=[*(f"ii-{k}" for k in range(1, 6)), "i-1/3-3", "iii-3"],
    )
    def test_answer_does_not_depend_on_truncation(self, case, lam, k, capsys):
        # rewriting never lowers a grade, so order k reads only the grades
        # <= k: at truncation k and at 6 the JSON differs in the echoed
        # truncation alone
        payloads = []
        for truncation in (k, 6):
            argv = ["rexpand", "--order", str(k), "--case", case, "--lambda", lam]
            assert cli.run([*argv, "--truncation", str(truncation)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("truncation") == truncation
            payloads.append(payload)
        assert payloads[0] == payloads[1]


# -- the whole-identity solve against the generic-pattern solve -----------


def _generic_pattern_solve(target, columns, k):
    """The solve that `linsolve.fit` replaced: one row per generic index
    pattern, after a guard that every row of a pattern agrees."""
    by_pattern: dict[tuple, tuple] = {}
    for (key, _), equation in coefficient_rows(target, columns, (k,)).items():
        if by_pattern.setdefault(_index_pattern(key), equation) != equation:
            raise UsageError("index pattern with non-uniform coefficients")
    generic = [by_pattern[pat] for pat in sorted(by_pattern) if _is_generic(pat)]
    sol = solve([row for row, _ in generic], [val for _, val in generic])
    return sol, len(generic)


class TestWholeIdentitySolve:
    @pytest.mark.parametrize(
        "case, lam, n, statuses",
        [
            ("ii", Fraction(1, 2), 4, ["unique", "unique", "parametric", "parametric"]),
            ("iii", Fraction(1, 2), 3, ["unique", "unique", "infeasible"]),
            ("i", Fraction(1, 3), 3, ["unique", "unique", "parametric"]),
        ],
    )
    def test_matches_generic_pattern_solve(self, case, lam, n, statuses):
        ctx = TwistContext(order=n, lam=lam)
        results = expand(n, realization(case, ctx), ctx)
        assert [r.status for r in results] == statuses
        prior = []
        for res in results:
            k = res.order
            target = bch_target(k, prior, ctx)
            columns = [term_column_by_canonicalize(t, k, ctx) for t in res.terms]
            oracle, equations = _generic_pattern_solve(target, columns, k)
            sol = res.solution
            assert (sol.status, sol.particular, sol.nullspace) == (
                oracle.status, oracle.particular, oracle.nullspace
            ), (case, k)
            assert res.equations == equations
            if sol.status != "infeasible":
                _check_solution(sol, columns, target)
                prior.append(res.element)


# -- the exponent-shift ansatz against the product-based one ---------------
#
# The oracle is the ansatz as it was built before `_expand_term` wrote its
# terms by exponent shifts: every candidate is a product gen * p^taken and
# an outer product with p^rest, summed term by term, at the full truncation
# N, and its mirror p^rest (x) gen * p^taken is built the same way rather
# than as its leg flip.


def _oracle_momentum_product(labels, idx, n: int) -> AlgebraElement:
    beta = [0] * DIM
    for lab in labels:
        beta[idx[lab]] += 1
    return AlgebraElement.monomial(Monomial(ZERO_EXP, tuple(beta)), n)


def _oracle_expand_term(f, taken, rest, side, gens, ctx) -> TensorElement:
    n = ctx.order
    acc = TensorElement.zero(n)
    labels = set(taken) | set(rest)
    if f == 1:
        dummies = tuple(d for d in ("j", "k") if d in labels)
        frames = [(i,) for i in SPATIAL]
    else:
        dummies = ("k",) if "k" in labels else ()
        frames = list(itertools.permutations(SPATIAL, 2))
    for frame in frames:
        gen = gens[frame]
        for assign in itertools.product(SPATIAL, repeat=len(dummies)):
            idx = {"i": frame[0], "0": 0, **dict(zip(dummies, assign))}
            if f == 2:
                idx["j"] = frame[1]
            gleg = gen * _oracle_momentum_product(taken, idx, n)
            oleg = _oracle_momentum_product(rest, idx, n)
            acc = acc + (
                tensor(gleg, oleg) if side == "left" else tensor(oleg, gleg)
            )
    return acc


def _oracle_generate_ansatz(k, real, ctx) -> list[rexpand.AnsatzTerm]:
    gens = {(i,): mhat(i, real, ctx) for i in SPATIAL}
    for i, j in itertools.permutations(SPATIAL, 2):
        gens[(i, j)] = mij(i, j, ctx)
    out: list[rexpand.AnsatzTerm] = []

    def push(term):
        element, negated = term.element, -term.element
        if element and not any(t.element in (element, negated) for t in out):
            out.append(term)

    for gname, f in (("Mh_i0", 1), ("M_ij", 2)):
        for content in _content(f, k):
            for taken, rest in _sub_multisets(content):
                for side in ("left", "right"):
                    element = _oracle_expand_term(f, taken, rest, side, gens, ctx)
                    gtext = _label_str(gname, taken)
                    otext = _label_str("", rest)
                    name = (
                        f"{gtext} ox {otext}" if side == "left" else f"{otext} ox {gtext}"
                    )
                    push(rexpand.AnsatzTerm(name, element))
    return out


def _oracle_assemble(terms, coeffs, k, ctx) -> TensorElement:
    n = ctx.order
    acc = TensorElement.zero(n)
    for t, c in zip(terms, coeffs):
        if c:
            acc = acc + t.element.scale(c)
    return acc.scale(Scalar.graded(I_NEG, k, n))


_ANSATZ_CASES = [
    ("i", Fraction(1, 3)),
    ("i", Fraction(1, 2)),
    ("i", None),
    ("ii", Fraction(1, 2)),
    ("iii", Fraction(1, 2)),
]


@pytest.fixture(scope="module", params=_ANSATZ_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def ansatz_pairs(request):
    """(N, k, terms, oracle terms, ctx) for N = 1..5 and k = 1..N."""
    case, lam = request.param
    out = []
    for n in range(1, 6):
        ctx = TwistContext(order=n, lam=lam)
        real = realization(case, ctx)
        for k in range(1, n + 1):
            out.append(
                (n, k, generate_ansatz(k, real, ctx), _oracle_generate_ansatz(k, real, ctx), ctx)
            )
    return out


class TestAnsatzAgainstProducts:
    def test_names_and_order_match(self, ansatz_pairs):
        for n, k, terms, oracle, _ in ansatz_pairs:
            assert [t.name for t in terms] == [t.name for t in oracle], (n, k)

    def test_elements_are_the_oracle_at_truncation_n_minus_k(self, ansatz_pairs):
        for n, k, terms, oracle, _ in ansatz_pairs:
            for t, o in zip(terms, oracle):
                assert t.element.order == n - k
                assert t.element == o.element.at_order(n - k), (n, k, t.name)

    def test_columns_and_assembly_match(self, ansatz_pairs):
        for n, k, terms, oracle, ctx in ansatz_pairs:
            for t, o in zip(terms, oracle):
                assert _term_column(t) == _term_column(o), (n, k, t.name)
            coeffs = [
                GaussianRational(j % 5 - 2, j % 3 - 1) for j in range(len(terms))
            ]
            assert assemble(terms, coeffs, k, ctx) == _oracle_assemble(
                oracle, coeffs, k, ctx
            ), (n, k)


def test_dummy_pairs_are_derived_from_the_order():
    """Order k lists every content with 0..floor((k - frame)/2) contracted
    dummy pairs, lettered after the frame ('j', 'k', ... for a boost, 'k',
    'l', ... for a rotation) and written before '0'; the ansatz sums a
    new letter over the spatial axes as it does 'k'."""
    for f in (1, 2):
        for k in range(1, 9):
            contents = _content(f, k)
            assert len(contents) == max(k - f + 2, 0) // 2, (f, k)
            assert all(len(c) == k for c in contents), (f, k)
    assert _content(2, 8)[-1] == ("i", "j", "k", "k", "l", "l", "m", "m")
    assert _content(2, 6) == [
        ("i", "j", "0", "0", "0", "0"),
        ("i", "j", "k", "k", "0", "0"),
        ("i", "j", "k", "k", "l", "l"),
    ]
    assert _content(1, 7)[-1] == ("i", "j", "j", "k", "k", "l", "l")
    assert _label_str("M_ij", ("0", "l", "k", "l")) == "M_ij*p_k*p_l^2*p_0"
    ctx = TwistContext(order=2, lam=Fraction(1, 2))
    real = realization("ii", ctx)
    gens = {(i,): mhat(i, real, ctx) for i in SPATIAL}
    gens.update({(i, j): mij(i, j, ctx) for i, j in itertools.permutations(SPATIAL, 2)})
    for f in (1, 2):
        with_l = rexpand._expand_term(f, ("i",), ("l", "l"), gens, 2)
        with_k = rexpand._expand_term(f, ("i",), ("k", "k"), gens, 2)
        assert with_l == with_k and with_l, f


# -- the columns by exponent arithmetic against canonicalization -----------
#
# The oracle is the column as it was built before `_term_column` read it
# off the term's grade-0 part: -i a0^k * term canonicalized mod R~ at
# truncation k (`paper_reference.term_column_by_canonicalize`), whose
# grade-k numbers divided by -i are the column's numbers.

_COLUMN_SETTINGS = [
    ("ii", Fraction(1, 2)),
    ("i", Fraction(1, 3)),
    ("i", Fraction(2, 3)),
    ("i", None),
    ("iii", Fraction(1, 2)),
]


@pytest.fixture(scope="module")
def ansatz_by_setting():
    """{(case, lam, N): [(k, ansatz terms, ctx) for k = 1..N]} for N = 3..6."""
    out = {}
    for case, lam in _COLUMN_SETTINGS:
        for n in range(3, 7):
            ctx = TwistContext(order=n, lam=lam)
            real = realization(case, ctx)
            out[case, lam, n] = [
                (k, generate_ansatz(k, real, ctx), ctx) for k in range(1, n + 1)
            ]
    return out


class TestColumnsByExponentArithmetic:
    def test_columns_match_canonicalization(self, ansatz_by_setting):
        """Canonical -i a0^k * term is all of grade k, and its numbers
        there, divided by -i, are the term's column."""
        for (case, lam, n), orders in ansatz_by_setting.items():
            for k, terms, ctx in orders:
                for t in terms:
                    oracle = term_column_by_canonicalize(t, k, ctx)
                    assert oracle.grade_part(k) == oracle
                    numbers = {
                        key: s.numeric_coefficient(k) / I_NEG
                        for key, s in oracle.terms.items()
                    }
                    assert _term_column(t) == numbers, (case, lam, n, k, t.name)

    def test_columns_are_the_same_for_every_case_and_lambda(self, ansatz_by_setting):
        """The column matrix belongs to the ansatz alone: it reads only the
        terms' grade-0 parts, the undeformed boosts and rotations."""
        lists = {
            (case, lam): [
                [(t.name, _term_column(t)) for t in terms]
                for k, terms, ctx in ansatz_by_setting[case, lam, 5]
            ]
            for case, lam in _COLUMN_SETTINGS
        }
        first = lists[_COLUMN_SETTINGS[0]]
        assert [len(cols) for cols in first] == [4, 10, 28, 52, 100]
        for setting, cols in lists.items():
            assert cols == first, setting

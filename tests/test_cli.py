"""Expression parser and command-line interface."""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kappatwist
from kappatwist.algebra import AlgebraElement, Monomial, p, x
from kappatwist.cli import rexpand_lambda, run
from kappatwist.hopf import TwistContext
from kappatwist.parser import MAX_NESTING, ParseError, evaluate, parse
from kappatwist.scalars import LambdaPoly, Scalar, UsageError
from kappatwist.tensor import TensorElement, tensor

N = 3


@pytest.fixture(scope="module")
def ctx():
    return TwistContext(order=N)


class TestParser:
    def test_normal_ordering_example(self, ctx):
        # p1*x1 elaborates to x1 p1 - i
        e = evaluate("p1*x1", ctx)
        assert e == x(1, N) * p(1, N) - AlgebraElement.one(N).scale(Scalar.i(N))
        assert e.coefficient(Monomial((0,) * 4, (0,) * 4)) == -Scalar.i(N)

    def test_tensor_example(self, ctx):
        t = evaluate("x1 ox Z^[lam]", ctx)
        assert isinstance(t, TensorElement)
        from kappatwist.tensor import tensor

        assert t == tensor(x(1, N), ctx.z(ctx.lam_poly))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("exp(")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("foo")

    def test_tensor_nesting_rejected(self, ctx):
        with pytest.raises(ParseError):
            parse("p1 ox p2 ox p3")

    def test_mixed_sum_rejected(self):
        with pytest.raises(ParseError):
            parse("p1 ox p2 + x1")

    def test_whitespace_insensitive(self, ctx):
        assert evaluate("p1*x1+2", ctx) == evaluate(" p1 * x1 + 2 ", ctx)

    def test_z_exponent_forms(self, ctx):
        assert evaluate("Z^[1-lam]", ctx) == evaluate("Z^[-lam+1]", ctx)
        assert evaluate("Z^[1/2]*Z^[-1/2]", ctx) == evaluate("1", ctx)
        assert evaluate("Z^[2*lam]", ctx) == evaluate("Z^[lam]*Z^[lam]", ctx)
        assert evaluate("Z^[lam*lam]", ctx) == evaluate("Z^[lam^2]", ctx)
        assert evaluate("Z^[2*(1-lam)]", ctx) == evaluate("Z^[2-2*lam]", ctx)

    def test_mhat_requires_case(self, ctx):
        with pytest.raises(UsageError):
            evaluate("Mhat[1,0]", ctx)
        e = evaluate("Mhat[1,0]", ctx, "i")
        assert not e.is_zero()

    def test_generator_table(self, ctx):
        for src in ("A", "S", "Z", "M[1,2]", "x3", "p3", "I", "a0", "lam"):
            evaluate(src, ctx)


@st.composite
def contexts_and_elements(draw, legs):
    """A context (order 1..4, lam symbolic or 1/3) and an element of it:
    plain for legs=1, else a two-leg tensor.  Coefficients spread over a0
    grades, powers of lam (substituted when lam is a number) and I."""
    n = draw(st.integers(1, 4))
    lam = draw(st.sampled_from([None, Fraction(1, 3)]))
    ctx = TwistContext(order=n, lam=lam)
    exponents = st.builds(
        lambda mus: tuple(mus.count(mu) for mu in range(4)),
        st.lists(st.integers(0, 3), max_size=2),
    )
    monomial = st.builds(Monomial, exponents, exponents)
    coeff = st.tuples(
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        st.integers(0, n),
        st.integers(0, 2),
        st.booleans(),
    )
    out = AlgebraElement.zero(n) if legs == 1 else TensorElement.zero(n)
    for keys, (c, k, j, imaginary) in draw(
        st.lists(st.tuples(st.tuples(*[monomial] * legs), coeff), min_size=1, max_size=4)
    ):
        s = Scalar.graded(LambdaPoly({j: c}), k, n)
        if imaginary:
            s = s * Scalar.i(n)
        plain = [AlgebraElement.monomial(m, n) for m in keys]
        out = out + (plain[0] if legs == 1 else tensor(*plain)).scale(s)
    return ctx, out if lam is None else out.substitute_lambda(lam)


class TestRoundTrip:
    @given(contexts_and_elements(legs=1))
    @settings(max_examples=60, deadline=None)
    def test_parse_render_identity(self, drawn):
        ctx, e = drawn
        assert evaluate(str(e), ctx) == e

    @given(contexts_and_elements(legs=2))
    @settings(max_examples=60, deadline=None)
    def test_tensor_parse_render_identity(self, drawn):
        ctx, t = drawn
        if t.is_zero():
            assert str(t) == "0"
        else:
            assert evaluate(str(t), ctx) == t

    def test_coproduct_rendering_roundtrip(self):
        ctx = TwistContext(order=N)
        for name in ("x0", "x1", "p0", "p1"):
            d = ctx.generator_coproduct(name)
            assert evaluate(str(d), ctx) == d


class TestCLI:
    def test_coproduct_example(self, capsys):
        code = run(["coproduct", "--gen", "p1", "--lambda", "sym", "--order", "3"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "p1 ox Z^[-lam] + Z^[1-lam] ox p1"

    def test_coproduct_all_generators(self, capsys):
        for gen in ("x0", "x1", "p0", "A", "S", "Z", "M[1,2]"):
            assert run(["coproduct", "--gen", gen, "--order", "3"]) == 0
        capsys.readouterr()

    def test_boost_coproduct_cases(self, capsys):
        for case in ("i", "ii", "iii"):
            args = ["coproduct", "--gen", "Mhat[1,0]", "--case", case, "--order", "3"]
            if case == "ii":
                args += ["--lambda", "1/2"]
            assert run(args) == 0
        capsys.readouterr()

    def test_rexpand_first_order_json(self, capsys):
        code = run(["rexpand", "--order", "1", "--case", "ii", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["c1"] == "-1"
        assert payload["d2"] == "1"
        assert payload["c2"] == "0"
        assert payload["d1"] == "0"
        assert payload["status"] == "unique"

    def test_rexpand_case_iii_infeasible(self, capsys):
        code = run(
            [
                "rexpand", "--order", "3", "--case", "iii",
                "--truncation", "3", "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "infeasible"

    def test_json_deterministic(self, capsys):
        args = ["rexpand", "--order", "1", "--case", "ii", "--format", "json"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        second = capsys.readouterr().out
        assert first == second

    def test_verify_exit_codes(self, capsys):
        assert (
            run(["verify", "--suite", "algebra", "--order", "2", "--quick"]) == 0
        )
        capsys.readouterr()

    def test_eval_and_canonicalize(self, capsys):
        assert run(["eval", "p1*x1", "--order", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-I + x1*p1"
        assert run(["eval", "x1 ox 1", "--canonicalize", "R0", "--order", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1 ox x1"

    def test_parse_error_exit_code(self, capsys):
        assert run(["eval", "exp("]) == 2
        capsys.readouterr()

    def test_parser_reused_after_bad_request(self, capsys):
        good = ["coproduct", "--gen", "p1", "--order", "3", "--format", "json"]
        assert run(good) == 0
        first = capsys.readouterr().out
        assert run(["coproduct", "--gen", "p1", "--order", "x"]) == 2
        capsys.readouterr()
        assert run(good) == 0
        assert capsys.readouterr().out == first
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_usage_error_exit_code(self, capsys):
        assert run(["eval", "Mhat[1,0]"]) == 2
        assert run(["coproduct", "--gen", "q7"]) == 2
        assert run(["bogus"]) == 2
        capsys.readouterr()


def _nested(opener: str, closer: str, depth: int, inner: str = "x1") -> str:
    return opener * depth + inner + closer * depth


class TestNestingBound:
    def test_200_parentheses_evaluate(self, ctx):
        assert evaluate(_nested("(", ")", 200), ctx) == x(1, N)

    @pytest.mark.parametrize(
        "opener, closer", [("(", ")"), ("Z^[", "]"), ("exp(", ")"), ("-", "")]
    )
    def test_each_bracket_kind_parses_at_the_bound(self, opener, closer):
        assert parse(_nested(opener, closer, MAX_NESTING, "a0*x1"))
        with pytest.raises(ParseError, match="nesting deeper than 200 levels"):
            parse(_nested(opener, closer, MAX_NESTING + 1, "a0*x1"))

    def test_mixed_nesting_counts_every_level(self):
        assert parse(_nested("-(", ")", MAX_NESTING // 2))
        with pytest.raises(ParseError):
            parse(_nested("-(", ")", MAX_NESTING // 2, "(x1)"))
        with pytest.raises(ParseError):
            parse(_nested("-(Z^[", "])", MAX_NESTING // 3 + 1))


def _cli_env() -> dict:
    """The environment of a fresh interpreter that imports this kappatwist."""
    src = str(Path(kappatwist.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


_BAD_INPUTS = [
    (["rexpand", "--order", "0"], "error: "),
    (["rexpand", "--order", "-1"], "error: "),
    (["eval", "exp(x1)"], "error: "),
    (["eval", "Z^[lam^3/2]"], "parse error: "),
    (["eval", "Mhat[1/2,0]"], "parse error: "),
    (["eval", "M[1,2/3]"], "parse error: "),
    (["eval", "1/0"], "parse error: "),
    (["eval", "Z^[2/0]"], "parse error: "),
    (["eval", "x1 ox 1 + x1"], "parse error: cannot mix tensor and plain terms at offset 10\n"),
    (["eval", "Z^[x1]"], "error: "),
    (["eval", "Z^[a0]"], "error: "),
    (["eval", "Z^[I]"], "error: "),
    (["eval", "Z^[p0]"], "error: "),
    (["eval", _nested("(", ")", 300)], "parse error: nesting deeper than 200 levels"),
    (["eval", _nested("Z^[", "]", 300)], "parse error: nesting deeper than 200 levels"),
    (["eval", _nested("exp(", ")", 300)], "parse error: nesting deeper than 200 levels"),
]


@pytest.mark.parametrize(
    "argv, prefix", _BAD_INPUTS, ids=[f"argv{k}" for k in range(len(_BAD_INPUTS))]
)
def test_bad_input_exits_2_without_traceback(argv, prefix):
    """Exit 2 with a one-line error, in a fresh interpreter so that an
    escaping exception would show as a traceback on stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "kappatwist.cli", *argv],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix)
    assert proc.stderr.count("\n") == 1


_HUGE_POWERS = [
    ("A^99999999", "0"),
    ("a0^99999999", "0"),
    ("x1^99999999", "x1^99999999"),
    ("exp(A)^99999999", "1 + 99999999*a0*p0 + 9999999800000001/2*a0^2*p0^2"),
]


@pytest.mark.parametrize("expr, want", _HUGE_POWERS, ids=[e for e, _ in _HUGE_POWERS])
def test_nilpotent_and_one_term_powers_end(expr, want):
    """A power is taken by repeated squaring and stops at the first zero, so
    a huge exponent of a nilpotent or one-term element is a short request."""
    proc = subprocess.run(
        [sys.executable, "-m", "kappatwist.cli", "eval", expr, "--order", "2"],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=10,
    )
    assert proc.returncode == 0
    assert proc.stdout == want + "\n"
    assert proc.stderr == ""


def test_rewrite_bound_exits_2(monkeypatch, capsys):
    """Exceeding the canonicalization step bound is a clean exit 2."""
    monkeypatch.setattr(importlib.import_module("kappatwist.tensor"), "MAX_REWRITE_STEPS", 0)
    assert run(["eval", "x1 ox 1", "--canonicalize", "R", "--order", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_closed_pipe_is_a_quiet_exit(tmp_path):
    """A reader that stops after 100 bytes leaves the command's own exit
    code and an empty stderr, for a short JSON line and for text larger
    than a pipe's buffer."""
    env = _cli_env()
    for argv in (
        ["rexpand", "--order", "3", "--case", "i"],
        ["eval", "(x1+p1+x2+p2+x3+p3+x0+p0)^7", "--order", "1"],
    ):
        with open(tmp_path / "stderr", "w+") as err, subprocess.Popen(
            [sys.executable, "-m", "kappatwist.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=env,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            err.seek(0)
            assert err.read() == ""


def test_rexpand_lambda_solves_sym_at_one_half():
    """The re-expansion solves at exact rationals: `sym` means 1/2."""
    assert rexpand_lambda("sym") == Fraction(1, 2)
    assert rexpand_lambda("1/3") == Fraction(1, 3)
    with pytest.raises(UsageError):
        rexpand_lambda("1/0")

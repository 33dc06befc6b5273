"""Fuzzing of the command-line surface: whatever string of
expression-language tokens, and whatever option values for `rexpand` and
`verify`, a user passes, `kappatwist` answers with exit code 0, 1 or 2 and
never with a traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappatwist.cli import run
from kappatwist.hopf import GENERATORS
from kappatwist.parser import MAX_NESTING

# The numbers stop at 2 and tokens are joined by spaces, so no drawn
# exponent exceeds 2: a power such as x1^99999999 carries no a0 and so is
# not cut short by the truncation, and no work budget bounds it yet.
_NUMBERS = ("0", "1", "2", "1/2", "3/0")
_VOCABULARY = (
    *GENERATORS,
    "I", "a0", "lam", "exp", "M", "Mhat", "ox", "foo",
    "+", "-", "*", "^", "(", ")", "[", "]", ",",
    *_NUMBERS,
)

_SHAPES = (
    lambda s: ["eval", s, "--order", "2"],
    lambda s: ["eval", s, "--order", "2", "--canonicalize", "R"],
    lambda s: ["eval", s, "--order", "2", "--case", "i"],
    lambda s: ["coproduct", "--gen", s, "--order", "2"],
)

# Token soup mostly fails to parse; the second strategy writes the same
# vocabulary in the grammar's shape, so that elaboration and canonical
# forms are reached too.  Powers apply only to single tokens, which keeps
# every exponent at 2 or below.
_soup = st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=12).map(" ".join)
_atoms = st.one_of(
    st.sampled_from((*GENERATORS, "I", "a0", "lam", "M[1,2]", "Mhat[2,0]", "foo", *_NUMBERS)),
    st.tuples(st.sampled_from(GENERATORS), st.sampled_from(("0", "1", "2"))).map("^".join),
)
_plain = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(" + - * ".split()), inner).map(" ".join),
        inner.map("({})".format),
        inner.map("exp({})".format),
        inner.map("Z^[{}]".format),
    ),
    max_leaves=6,
)
_shaped = st.one_of(_plain, st.tuples(_plain, _plain).map(" ox ".join))
expressions = st.one_of(_soup, _shaped)


def _run(argv) -> tuple[int, str]:
    """Run the CLI in-process: (exit code, stderr).  An exception that
    escapes `run` fails the test by itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("shape", range(len(_SHAPES)))
@settings(max_examples=150, deadline=None)
@given(src=expressions)
def test_any_token_string_exits_cleanly(shape, src):
    code, err = _run(_SHAPES[shape](src))
    assert code in (0, 1, 2), (src, code)
    assert "Traceback" not in err, src


def _nested(depth: int) -> str:
    return "(" * depth + "x1" + ")" * depth


def test_nesting_at_the_bound_evaluates():
    assert _run(["eval", _nested(MAX_NESTING), "--order", "2"]) == (0, "")


def test_nesting_past_the_bound_is_a_parse_error():
    code, err = _run(["eval", _nested(MAX_NESTING + 1), "--order", "2"])
    assert code == 2
    assert err.startswith("parse error: nesting deeper than")


# rexpand and verify take every option with a drawn value, valid or not,
# written as "--flag value" or "--flag=value".  The valid orders and
# truncations stop at 2 ("7" is past the cap of 6) and verify runs
# --quick, so each case takes a fraction of a second.
_INTEGERS = ("0", "-1", "1", "2", "7", "x", "1/0", "abc", "0.1", "")
_VALUES = {
    "--order": _INTEGERS,
    "--truncation": _INTEGERS,
    "--seed": _INTEGERS,
    "--case": ("i", "ii", "iii", "iv", "x", ""),
    "--lambda": ("sym", "1/2", "1/3", "0", "-1", "7", "-5/3", "0.1", "x", "1/0", "abc"),
    "--suite": ("algebra", "coalgebra", "twist", "rmatrix", "poincare", "all", "abc", ""),
    "--format": ("text", "json", "x"),
}
_OPTIONS = {
    "rexpand": ("--case", "--lambda", "--truncation", "--format"),
    "verify": ("--suite", "--lambda", "--seed", "--format"),
}


def _option(draw, flag):
    value = draw(st.sampled_from(_VALUES[flag]))
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def _arguments(draw, command):
    argv = [command, *_option(draw, "--order")]
    for flag in _OPTIONS[command]:
        if draw(st.booleans()):
            argv += _option(draw, flag)
    if command == "verify":
        argv.append("--quick")
    return argv


@pytest.mark.parametrize("command", sorted(_OPTIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_option_values_exit_cleanly(command, data):
    argv = data.draw(_arguments(command))
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv


@pytest.mark.parametrize(
    "argv, code",
    [
        (["rexpand", "--order", "2", "--case", "i", "--lambda=-5/3"], 0),
        # argparse reads a separate "-5/3" as an option, not a value
        (["rexpand", "--order", "2", "--case", "i", "--lambda", "-5/3"], 2),
        (["rexpand", "--order", "2", "--lambda", "1/0"], 2),
        (["rexpand", "--order", "0"], 2),
        (["rexpand", "--order", "2", "--truncation", "1"], 2),
        (["rexpand", "--order", "7"], 2),
        (["verify", "--order", "2", "--quick", "--lambda=-5/3", "--seed", "-1"], 0),
        (["verify", "--order", "-1", "--quick"], 2),
        (["verify", "--order", "2", "--quick", "--seed", "0.1"], 2),
        (["verify", "--order", "2", "--quick", "--suite", "abc"], 2),
        (["rexpand", "--order", "2", "--truncation", "0"], 2),
    ],
)
def test_option_values_exit_codes(argv, code):
    got, err = _run(argv)
    assert got == code, (argv, err)
    assert "Traceback" not in err

"""Grammar fuzzing of the command-line surface: whatever string of
expression-language tokens a user passes, `kappatwist` answers with exit
code 0, 1 or 2 and never with a traceback."""

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

"""Byte stability of the rexpand ladder: the stdout of each command below
hashes to the sha256 digest recorded for it.

The digests pin the exact JSON, so a change to how an order is solved
(truncation, canonical forms, solution checks) cannot move a byte of the
output unnoticed.  Order 1 and case (iii) at order 3 are pinned in full
by `readme_golden.json`.
"""

import contextlib
import hashlib
import io
import shlex

import pytest

from kappatwist.cli import run

DIGESTS = {
    "rexpand --order 2": "59059ce6b340df3ed85687a92cef37015d6740dffc1ec117f19d0d88fb126145",
    "rexpand --order 3 --case ii": "e2374f9cdef7de0e73b86e8598683b246f6f2dca12e951163ee608abb5ff4cbf",
    "rexpand --order 4 --case ii": "e44745dca22b6cfe366152ff52d05b75eb1ed7c43110fa02b04920690a9648bf",
    "rexpand --order 2 --case i": "a1a7dfeb321aa986ebfc1536dcad13b542f91aa2d11ba9e59285d94850f5234e",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[command]

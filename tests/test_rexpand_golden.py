"""Byte stability of the rexpand ladder: the stdout of each command below
hashes to the sha256 digest recorded for it.

The digests pin the exact JSON, so a change to how an order is solved
(truncation, canonical forms, solution checks) cannot move a byte of the
output unnoticed.  The two runs at truncation 6 solve orders k below N,
where a column must ignore the grades above 0 of its ansatz term.  Order 1
and case (iii) at order 3 are pinned in full by `readme_golden.json`;
order 6 of case (ii), a few seconds on two vCPUs, is pinned by a step of
the CI workflow instead.
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
    "rexpand --order 5 --case ii": "f4a45f1f337ead757dd3f0b7ad6cd4e43f8ca6917455d31e2d616edb5133f451",
    "rexpand --order 3 --case i --lambda 1/3": "9fd7596b224f3dd75c0d7e13141fd441381dbc372b7b735117da7d4e08d46921",
    "rexpand --order 4 --case i --lambda 1/3": "9286468a7b956e5bfe3b0d37267a7e2ce60f9c61de78be9b87f8cb455b2ac68b",
    "rexpand --order 3 --case ii --truncation 6": "6cfc3ef45317e3954dd8e163a9649d5314fe12b62b6250a07f1455dfe48043d2",
    "rexpand --order 4 --case i --lambda 1/3 --truncation 6": "249496c6192441cb5cd619f828ca8e3df27b6cd30a129f886fe2a084de320a1a",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[command]

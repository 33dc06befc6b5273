"""The scripts under `scripts/`, each run as a user runs it: in a fresh
interpreter, with the package on PYTHONPATH."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kappatwist

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(kappatwist.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_rexpand_report():
    proc = _run_script("rexpand_report.py", "--up-to", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "case=ii lambda=1/2 truncation=2"
    assert re.search(r"^order 1: unique .* equations=7 ", proc.stdout, re.M)
    assert re.search(r"^order 2: unique .* equations=16 ", proc.stdout, re.M)
    assert "substitution residual through solved orders: clean" in proc.stdout


def test_rexpand_report_reads_lambda_as_the_cli():
    """`sym` solves at lambda = 1/2, as `kappatwist rexpand` does."""
    sym = _run_script("rexpand_report.py", "--up-to", "2", "--lambda", "sym")
    half = _run_script("rexpand_report.py", "--up-to", "2", "--lambda", "1/2")
    assert sym.returncode == half.returncode == 0, sym.stderr
    assert sym.stdout == half.stdout


def test_rexpand_report_header_names_what_was_solved():
    proc = _run_script(
        "rexpand_report.py", "--case", "iii", "--up-to", "1", "--lambda", "sym",
        "--truncation", "3",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "case=iii lambda=1/2 truncation=3"


@pytest.mark.parametrize(
    "args",
    [
        ("--lambda", "1/0"),
        ("--lambda", "one-half"),
        ("--up-to", "7"),
        ("--up-to", "0"),
        ("--up-to", "2", "--truncation", "1"),
        ("--up-to", "2", "--truncation", "0"),
    ],
    ids=[
        "lambda-1/0", "lambda-word", "order-cap", "order-zero", "truncation-low",
        "truncation-zero",
    ],
)
def test_rexpand_report_usage_errors(args):
    """A rejected order, lambda or truncation prints nothing to stdout."""
    proc = _run_script("rexpand_report.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_coproduct_tables_bytes():
    """Every entry verifies, at order 2 and at order 6, and the table prints
    the bytes it printed when the published coproducts were still
    tabulated in the CLI."""
    for order in ("2", "6"):
        proc = _run_script("coproduct_tables.py", "--order", order)
        assert proc.returncode == 0, (order, proc.stderr)
        assert len(proc.stdout.splitlines()) == 23
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "7fea28eef18f00832adce4d054be5ea39bff2813592da8b883f69304a59a9f31"
        ), order

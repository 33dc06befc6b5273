"""Every CLI example in README.md prints the bytes recorded in
`readme_golden.json`.

`verify` runs with `--format json`, because its text output carries
timings.  To re-record the fixture after an intended output change, run
`PYTHONPATH=src python tests/test_readme_golden.py`.
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from kappatwist.cli import run

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "readme_golden.json"


def readme_examples() -> list[str]:
    """The `kappatwist ...` command lines of README's CLI code block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        line.split("#", 1)[0].strip()
        for line in block.splitlines()
        if line.startswith("kappatwist ")
    ]


def argv_for(example: str) -> list[str]:
    argv = shlex.split(example)[1:]
    if argv[0] == "verify" and "--format" not in argv:
        argv += ["--format", "json"]
    return argv


def run_example(example: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv_for(example))
    return code, out.getvalue()


def test_fixture_covers_readme():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(readme_examples())


@pytest.mark.parametrize("example", readme_examples())
def test_readme_example_output(example):
    expected = json.loads(FIXTURE.read_text())[example]
    code, out = run_example(example)
    assert code == 0
    assert out == expected


if __name__ == "__main__":
    recorded = {}
    for example in readme_examples():
        code, out = run_example(example)
        if code != 0:
            raise SystemExit(f"{example!r} exited with {code}")
        recorded[example] = out
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} examples in {FIXTURE}")

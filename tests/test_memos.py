"""Every process-wide memo in the package is bounded: each `lru_cache`
names an integer `maxsize`, and no unbounded `functools.cache` is used."""

import ast
from pathlib import Path

import pytest

import kappatwist

PACKAGE = Path(kappatwist.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bounded(call: ast.Call) -> bool:
    """lru_cache(maxsize=<int>) or lru_cache(<int>)."""
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return any(
        isinstance(v, ast.Constant) and v.value.__class__ is int for v in sizes
    )


def unbounded_memos(path: Path) -> list[str]:
    """Lines of every lru_cache call without an integer maxsize, and of
    every bare @lru_cache or @cache decorator (a bare @lru_cache is bounded
    at 128, but the bound should be written where the memo is)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            if not _bounded(node):
                out.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [
                deco.lineno
                for deco in node.decorator_list
                if _name(deco) in ("lru_cache", "cache")
            ]
    return [f"{path.name}:{line}" for line in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_memo_is_bounded(path):
    assert unbounded_memos(path) == []


def test_detects_unbounded_memos(tmp_path):
    src = tmp_path / "memo.py"
    src.write_text(
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@lru_cache\ndef b(): pass\n"
        "@lru_cache()\ndef c(): pass\n"
        "@lru_cache(maxsize=64)\ndef d(): pass\n"
        "@lru_cache(8)\ndef e(): pass\n"
        "@cache\ndef f(): pass\n"
    )
    assert unbounded_memos(src) == [f"memo.py:{n}" for n in (2, 4, 6, 12)]

"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import kappatwist

PACKAGE = Path(kappatwist.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [args.vararg, args.kwarg]
            found = [node.returns] + [a.annotation for a in every if a is not None]
        elif isinstance(node, ast.AnnAssign):
            found = [node.annotation]
        else:
            continue
        yield from (a for a in found if a is not None)


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []

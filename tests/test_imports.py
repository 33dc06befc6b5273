"""Every import in the package is used: a module-level import by its
module, an import inside a function by that function.  A function imports
lazily only what its module does not import at the top."""

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


def _function_imports(tree: ast.Module):
    """(function, import statement) for every import inside a function."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield func, node


def unused_function_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for func, node in _function_imports(tree):
        used = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def redundant_lazy_imports(path: Path) -> list[str]:
    """Function-level imports from a module the file imports at the top."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {
        (node.level, node.module)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
    }
    return [
        f"{path.name}:{node.lineno}: {node.module}"
        for _, node in _function_imports(tree)
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_function_imports(path):
    assert unused_function_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_lazy_import_of_a_top_level_module(path):
    assert redundant_lazy_imports(path) == []


# -- every definition in the package is reached from outside the tests --

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SCANNED = [
    *MODULES,
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted(PERFBENCH.rglob("*.py")),
]

# Definitions and fields that nothing in src/, scripts/ or perfbench/
# names, kept on purpose
UNREFERENCED_ALLOWED = {
    "parser.ParseError.position": "the public offset of a parse error for library callers",
    "algebra.AlgebraElement.monomial": "the checked one-monomial constructor for library callers; the engine builds through the dict constructor",
}


def definitions(path: Path):
    """(qualified name, node): top-level functions and classes, and the
    public methods of the classes."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def references(path: Path) -> list[tuple[str, int, str]]:
    """(name, line, kind) of every Name and Attribute in the file; kind is
    "name", "called" for an Attribute that is the function of a call, or
    "attribute"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, "name"))
        elif isinstance(node, ast.Attribute):
            kind = "called" if id(node) in called else "attribute"
            out.append((node.attr, node.lineno, kind))
    return out


def hook_names() -> set[str]:
    """Every part of every path that perfbench/layers.py hooks."""
    layers = ast.parse((PERFBENCH / "layers.py").read_text())
    return {
        part
        for node in ast.walk(layers)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) in ("SPANNED", "COUNTED") for t in node.targets)
        for entry in node.value.elts
        if isinstance(entry, ast.Tuple)
        for part in entry.elts[1].value.split(".")
    }


def _is_property(node: ast.AST) -> bool:
    decorators = getattr(node, "decorator_list", [])
    return any(getattr(d, "id", None) in ("property", "cached_property") for d in decorators)


def unreferenced_definitions(modules=MODULES, scanned=SCANNED, strict=True) -> list[str]:
    """The definitions in `modules` that nothing in `scanned` names outside
    their own body.  A method is named only by an attribute: a bare name is
    a variable or a function.  An uncalled attribute whose name some class
    in `modules` stores as a field (`fields`) reads that field, so it names
    a property of that name but no other method: `ctx.lam` does not keep a
    method `lam` alive.  `strict=False` counts every name and attribute."""
    refs = {path: references(path) for path in scanned}
    stored = {name for path in modules for _, name in fields(path)}
    hooked = hook_names()
    out = []
    for path in modules:
        for qualname, node in definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            if not strict or "." not in qualname:
                kinds = {"name", "called", "attribute"}
            elif name in stored and not _is_property(node):
                kinds = {"called"}
            else:
                kinds = {"called", "attribute"}
            own = range(node.lineno, node.end_lineno + 1)
            if name in hooked or any(
                n == name and kind in kinds and (where != path or line not in own)
                for where, found in refs.items()
                for n, line, kind in found
            ):
                continue
            out.append(f"{path.stem}.{qualname}")
    return out


def examined(walk) -> set[str]:
    """The qualified names that `definitions` or `fields` walks."""
    return {f"{path.stem}.{qualname}" for path in MODULES for qualname, _ in walk(path)}


def allowed(walk) -> list[str]:
    return sorted(examined(walk) & UNREFERENCED_ALLOWED.keys())


def test_every_definition_is_referenced_outside_the_tests():
    assert sorted(unreferenced_definitions()) == allowed(definitions)


def test_a_field_read_does_not_reference_a_method(tmp_path):
    module = tmp_path / "ring.py"
    module.write_text(
        "class Scalar:\n"
        "    def lam(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def order(self):\n"
        "        return 1\n"
        "class Context:\n"
        "    def __init__(self):\n"
        "        self.lam = Scalar()\n"
        "        self.order = self.lam.order\n"
        "def lam_of(ctx):\n"
        "    lam = ctx.lam\n"
        "    return lam\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from ring import Context, lam_of\nlam_of(Context())\n")
    scanned = [module, user]
    assert unreferenced_definitions([module], scanned) == ["ring.Scalar.lam"]
    assert unreferenced_definitions([module], scanned, strict=False) == []
    user.write_text(user.read_text() + "Context().lam.lam()\n")
    assert unreferenced_definitions([module], scanned) == []


# -- every stored field is read outside the tests ---------------------------


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple, whose annotated body lines are fields."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = {getattr(node, "id", None) for node in decorators + cls.bases}
    return bool(names & {"dataclass", "NamedTuple"})


def fields(path: Path):
    """(qualified name, field): the fields of every dataclass and NamedTuple
    and every attribute a method stores as `self.x = ...`."""
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(cls, ast.ClassDef):
            continue
        found = set()
        if _is_record(cls):
            found |= {
                node.target.id
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            }
        for func in cls.body:
            if isinstance(func, ast.FunctionDef):
                found |= {
                    node.attr
                    for node in ast.walk(func)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                }
        for name in sorted(found):
            yield f"{cls.name}.{name}", name


def attribute_reads(path: Path) -> set[str]:
    """Every attribute name the file reads (an Attribute in Load context)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields() -> list[str]:
    read = set().union(*(attribute_reads(path) for path in SCANNED))
    return [
        f"{path.stem}.{qualname}"
        for path in MODULES
        for qualname, name in fields(path)
        if name not in read
    ]


def test_every_field_is_read_outside_the_tests():
    assert sorted(unread_fields()) == allowed(fields)


def test_every_allowed_name_is_a_definition_or_a_field():
    assert UNREFERENCED_ALLOWED.keys() <= examined(definitions) | examined(fields)

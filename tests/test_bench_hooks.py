"""Every function the benchmark's traced run hooks still exists where the
hooks look for it, so a refactor that would break the traced run fails
here first.  The hook table is read from perfbench/layers.py."""

import importlib
from pathlib import Path

import pytest

import kappatwist.algebra as algebra
import kappatwist.cli  # noqa: F401  (loads every module that binds a hook)
import kappatwist.linsolve as linsolve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("layers")


def test_every_hook_target_is_in_its_owners_dict(layers):
    targets = [(mod, path) for mod, path, _ in layers.SPANNED + layers.COUNTED]
    assert targets
    for mod, path in targets:
        module = importlib.import_module(f"kappatwist.{mod}")
        owner, attr = layers._resolve(module, path)
        assert attr in vars(owner), f"{mod}.{path}"
        assert callable(vars(owner)[attr]), f"{mod}.{path}"


def test_helpers_the_hooks_read_exist():
    assert isinstance(linsolve.ExactMatrix, type)
    assert callable(algebra.monomial_product.cache_info)

"""Every name a module exports through ``__all__`` exists, so a name left
behind by a removal fails here rather than at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import flowunfold

_MODULES = ["flowunfold"] + [f"flowunfold.{m.name}"
                             for m in pkgutil.iter_modules(flowunfold.__path__)]


def test_every_module_is_listed():
    assert {"flowunfold.cli", "flowunfold.train", "flowunfold.diff"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])  # flowunfold.errors has none
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"

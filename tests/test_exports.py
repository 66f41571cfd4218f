"""Every public name of the package resolves.

A name left in ``__all__`` after its definition is deleted breaks only
``from module import *``, which nothing else in the suite runs; a stale
re-export in ``simcert/__init__`` breaks ``import simcert`` itself.
"""

import importlib
import pkgutil

import pytest

import simcert

MODULES = ["simcert"] + [f"simcert.{m.name}" for m in pkgutil.iter_modules(simcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})

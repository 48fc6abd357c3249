"""Every name in a public ``__all__`` must resolve.

A deletion that leaves its ``__all__`` entry behind breaks
``from nilcert import *`` (and the module's own star import) with an
``AttributeError`` that no other test would meet.
"""

import importlib
import pkgutil

import pytest

import nilcert

MODULES = ["nilcert"] + [
    f"nilcert.{info.name}" for info in pkgutil.iter_modules(nilcert.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import_succeeds(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(importlib.import_module(name), "__all__", ())) <= set(namespace)

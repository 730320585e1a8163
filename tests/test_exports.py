import importlib
import pkgutil

import pytest

import cvarlearn

MODULES = ["cvarlearn"] + [f"cvarlearn.{m.name}"
                           for m in pkgutil.iter_modules(cvarlearn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from cvarlearn import *", namespace)
    assert set(cvarlearn.__all__) <= set(namespace)

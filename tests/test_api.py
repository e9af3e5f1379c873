import importlib
import pkgutil

import pytest

import ggnfem

MODULES = ["ggnfem"] + [f"ggnfem.{m.name}"
                        for m in pkgutil.iter_modules(ggnfem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing

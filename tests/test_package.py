"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import lccnn


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(lccnn.__path__)])
def test_all_names_exist(name):
    module = importlib.import_module(f"lccnn.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

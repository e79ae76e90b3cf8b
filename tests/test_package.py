"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import snmix

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(snmix.__path__, prefix="snmix.")
)


def test_package_exports_resolve():
    missing = [name for name in snmix.__all__ if not hasattr(snmix, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []

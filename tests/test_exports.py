"""Every exported name resolves, so a deleted class or function leaves no
stale entry in ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import evidencer

MODULES = sorted(m.name for m in pkgutil.iter_modules(evidencer.__path__))


def test_package_exports_resolve():
    missing = [name for name in evidencer.__all__ if not hasattr(evidencer, name)]
    assert not missing


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"evidencer.{module_name}")
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing

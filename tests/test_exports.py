"""Every exported name resolves, so a deleted class or function leaves no
stale entry in ``__all__`` behind, and each public name is declared once,
in the module that defines it."""

import importlib
import inspect
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


def _exports():
    """(module name, exported object name, object) for every module's ``__all__``."""
    for module_name in MODULES:
        module = importlib.import_module(f"evidencer.{module_name}")
        for name in getattr(module, "__all__", ()):
            yield module_name, name, getattr(module, name)


def test_each_export_is_defined_in_its_module():
    foreign = [
        (module_name, name, obj.__module__)
        for module_name, name, obj in _exports()
        if (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ != f"evidencer.{module_name}"
    ]
    assert not foreign


def test_no_name_is_exported_by_two_modules():
    names = [name for _, name, _ in _exports()]
    assert len(names) == len(set(names))

"""Every exported name resolves, so a deleted class or function leaves no
stale entry in ``__all__`` behind, and each public name is declared once,
in the module that defines it. Public dataclasses that hold arrays compare
by identity. The benchmark's tracer hooks name lookup sites that exist."""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
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


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__ compares arrays with ==, whose truth value raises,
    # and a frozen class's generated __hash__ hashes an unhashable array
    holders = {
        obj.__name__: obj
        for _, _, obj in _exports()
        if dataclasses.is_dataclass(obj)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))
    }
    assert {
        "LabeledMatrix", "ResultTable", "GroupLmeStack", "BetaStack",
        "PosteriorProbs", "DirichletPosterior", "CvResult", "NgParams", "GlmSpec",
    } <= holders.keys()
    for cls in holders.values():
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    for make in (
        lambda: evidencer.LabeledMatrix(np.ones((2, 2))),
        lambda: evidencer.GroupLmeStack(lme=np.zeros((2, 2, 3)), subject_ids=("a", "b")),
        lambda: evidencer.DirichletPosterior(alpha=np.ones((2, 3)), alpha0=1.0),
    ):
        one, other = make(), make()
        assert one == one and one != other
        assert len({one, other, one}) == 2


# hooks whose lookup sites the library no longer has; the benchmark skips
# and lists them, and none other may join them
_STALE_HOOKS = {"evidencer.pipeline.cv_lme_models", "evidencer.rfx.gamma_quadrature"}


def test_benchmark_hooks_resolve(monkeypatch):
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    tracer = importlib.import_module("tracer")
    missing = {
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracer.CLI_HOOKS + tracer.LIBRARY_HOOKS
        if not hasattr(importlib.import_module(module_name), attr)
    }
    assert missing <= _STALE_HOOKS
    # the stage table the traced command line wraps
    stages = evidencer.pipeline._STAGE_FUNCTIONS
    assert isinstance(stages, dict) and set(stages) == set(evidencer.pipeline.STAGE_NAMES)

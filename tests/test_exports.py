"""Every export list names something that exists."""

import importlib
import pkgutil

import pytest

import passband

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(passband.__path__)
)


def test_submodules_found():
    assert {"config", "groups", "harness"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"passband.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []
    namespace: dict = {}
    exec(f"from passband.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_star_import_of_package():
    namespace: dict = {}
    exec("from passband import *", namespace)
    assert "run_experiment" in namespace
    assert "ExperimentConfig" in namespace

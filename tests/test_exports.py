"""Every export list names something that exists."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def test_benchmark_call_sites_resolve(monkeypatch):
    # The benchmark times each layer by replacing the attribute at its
    # 'module:attr' sites, so each must exist; read its table, not a copy.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it loads.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    sites = [site for layer in workloads.LAYERS for site in layer.sites]
    assert sites
    missing = []
    for site in sites:
        module_name, attr = site.split(":")
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(site)
    assert missing == []

"""Every export list names something that exists, every import is used, and
what the benchmark looks up and reads is there."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import passband
from passband.config import parse_config
from passband.harness import emit_traces, run_experiment

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(passband.__path__)
)
SRC = Path(passband.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py loaded by path under its own name, as the
    benchmark's scripts import each other; sys.modules forgets it after the
    test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it loads.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


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


# The per-group object layer: no run reaches it, so the package does not
# export it; its modules keep it for the benchmark and the tests.
RETIRED = ("GroupSample", "sample_fresh_group", "sample_rerollout_group", "PrefixPool",
           "PrefixRecord")


def test_retired_object_layer_is_not_exported():
    namespace: dict = {}
    exec("from passband import *", namespace)
    assert set(RETIRED).isdisjoint(namespace)
    assert set(RETIRED).isdisjoint(passband.env.__all__ + passband.controller.__all__)
    assert not hasattr(passband.groups, "GroupOrigin")


def test_benchmark_call_sites_resolve(monkeypatch):
    # The benchmark times each layer by replacing the attribute at its
    # 'module:attr' sites, so each must exist; read its table, not a copy.
    workloads = load_perfbench("workloads", monkeypatch)
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


def test_benchmark_output_checks_hold(monkeypatch, tmp_path):
    # The benchmark's worker checks a closed-loop run through
    # RunResult.metrics, group_records and final_states; run its own checks
    # on a short steer run, so that a change to what it reads fails here.
    for name in ("calibrate", "spans", "workloads"):
        load_perfbench(name, monkeypatch)
    worker = load_perfbench("worker", monkeypatch)
    steer = worker.WORKLOADS["steer"]
    config = replace(parse_config(steer.config_text(5)), steps=120)
    result = run_experiment(config)
    emit_traces(result, tmp_path)
    checks, digests, info = worker.closed_loop_checks(steer, result, tmp_path)
    assert checks["audit_losses_finite"] and checks["rewards_binary"]
    assert set(digests) == set(worker.TRACE_FILES)
    # The worker pools per-step rates weighted by their counts; pool the
    # passes of the last steps' rerollouts straight from the columns.
    groups, n = result.groups, config.group_size
    tail = groups.step >= config.steps - worker.POOLED_TAIL_STEPS
    direct = {}
    for label in result.final_states:
        rows = tail & (groups.parent_bucket == int(label.split("/")[0]))
        assert rows.any()
        direct[label] = groups.rewards[rows].sum() / (rows.sum() * n)
    assert info["pooled_tail_rates"] == pytest.approx(direct, rel=1e-12, abs=0)


def unused_imports(path):
    """(name, exempt) for each name the module imports but neither uses nor
    lists in __all__; exempt when its import statement carries noqa: F401."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            exempt = "noqa: F401" in lines[node.lineno - 1]
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((name, exempt))
    return found


def test_src_modules_use_their_imports():
    unused, exempt = [], []
    for name in SUBMODULES:
        for imported, noqa in unused_imports(SRC / f"{name}.py"):
            (exempt if noqa else unused).append(f"{name}.{imported}")
    assert unused == []
    # An import kept only for code that looks it up on the module says so
    # with noqa: F401; each such name is listed here.
    assert exempt == ["harness.masked_grpo_loss"]


def private_definitions(tree):
    """Module-level functions, classes and assigned names that start with
    one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def referenced_names(tree):
    """Every name a module reads: bare names, attributes and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_src_private_names_are_used():
    # A private helper that nothing in the package reads is left over from a
    # deletion; tests alone do not keep one alive.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    referenced = set().union(*map(referenced_names, trees.values()))
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in referenced
    ]
    assert unused == []

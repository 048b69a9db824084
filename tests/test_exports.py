"""Every export list names something that exists, every import is used, and
what the benchmark looks up and reads is there."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import passband
from passband.config import ExperimentConfig, parse_config
from passband.harness import emit_traces, run_experiment

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(passband.__path__)
)
SRC = Path(passband.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
    assert exempt == ["harness.masked_grpo_loss", "verification.masked_grpo_loss"]


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


def test_exported_names_are_read():
    # A public name that no src module and no demo reads is kept alive by the
    # tests alone; the package's own imports count as reads.
    paths = [*sorted(SRC.glob("*.py")), *sorted(DEMOS.glob("*.py"))]
    read = set().union(*(
        referenced_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in paths
    ))
    unread = [
        f"{name}.{item}"
        for name in SUBMODULES
        for item in getattr(importlib.import_module(f"passband.{name}"), "__all__", [])
        if item not in read
    ]
    assert unread == []


# The scalar int checks that do not go through errors.check_int: a per-call
# fast path, an exclusive bound raised as a ContractError, a group size that
# must also be even, and a seed that may be a sequence.
LOCAL_INT_CHECKS = {
    "controller.replay_boundary", "env.sample_rerollout_group", "groups._hard_upper",
    "env._seed_base",
}


def int_rule_raises(tree):
    """Names of the functions that raise an error whose message's own text
    states an int rule (the word "int"), once per function."""
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            texts = [
                part.value for arg in node.exc.args for part in ast.walk(arg)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ]
            if any(re.search(r"\bint\b", text) for text in texts):
                found.add(function.name)
    return found


def test_scalar_int_rule_is_stated_once():
    # errors.check_int states "an int in [low, high], and not a bool"; a
    # module that raises its own copy of the rule is listed above or fails.
    local = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "errors"
        for name in int_rule_raises(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert local == LOCAL_INT_CHECKS



def check_results_built(node):
    """The CheckResult(...) calls under node, by name or as an attribute."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "CheckResult"
    ]


def test_verdict_rule_is_stated_once():
    # verification._verdict passes a suite when nothing failed and lists the
    # failures, or else what held; a suite that builds its own CheckResult fails.
    tree = ast.parse((SRC / "verification.py").read_text(encoding="utf-8"))
    verdicts = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_verdict"]
    assert [len(check_results_built(f)) for f in verdicts] == [1]
    assert len(check_results_built(tree)) == 1


def imported_packages(tree):
    """Top-level packages a module imports absolutely; relative imports are
    the package's own."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_src_imports_numpy_and_the_standard_library_only():
    foreign = {
        f"{path.stem}: {package}"
        for path in sorted(SRC.glob("*.py"))
        for package in imported_packages(ast.parse(path.read_text(encoding="utf-8")))
        if package != "numpy" and package not in sys.stdlib_module_names
    }
    assert foreign == set()


# Run in a process where importing scipy fails: a 3-step run, its traces and
# the oracle suites of `passband verify`.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from dataclasses import replace
import passband
from passband.harness import emit_traces, run_experiment
from passband.verification import run_default_checks
emit_traces(run_experiment(replace(passband.ExperimentConfig(), steps=3)), sys.argv[1])
print([check.passed for check in run_default_checks(0)])
"""


def test_runs_and_verifies_without_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path / "child")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[True] * 6}\n"
    # The traces are the bytes this process writes with scipy importable.
    written = emit_traces(run_experiment(replace(ExperimentConfig(), steps=3)), tmp_path / "here")
    assert len(written) == 5
    for path in written:
        assert (tmp_path / "child" / path.name).read_bytes() == path.read_bytes()


# An N = 16 run and its traces in a process where importing scipy fails.
# np.unique without return_inverse imports numpy.ma, about 16 ms in such a
# process; emission calls neither.
WITHOUT_NUMPY_MA = """
import sys
sys.modules["scipy"] = None
from passband.config import parse_config
from passband.harness import emit_traces, run_experiment
config = parse_config("group_size = 16\\nbatch_size = 8\\nsteps = 4\\n")
emit_traces(run_experiment(config), sys.argv[1])
print("numpy.ma" in sys.modules)
"""


def test_emission_leaves_numpy_ma_unimported(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY_MA, str(tmp_path / "child")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert len(list((tmp_path / "child").iterdir())) == 5

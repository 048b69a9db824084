"""The demos run against the current package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_signal_landscape.py", "02_controller_dynamics.py", "04_masking_gradients.py"],
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_closed_loop_demo_imports_resolve():
    # The closed-loop demo takes several seconds, so it is only compiled here.
    path = DEMOS / "03_closed_loop.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("passband")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"

"""The demos run against the current package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


# sha256 of each demo's stdout: a refactor that keeps the numbers keeps these.
STDOUT_DIGESTS = {
    "01_signal_landscape.py": "aaa08aa2e7946a3e00a2665efcd74c497061d7adb50069c1d508f68825f8b573",
    "02_controller_dynamics.py": "3f0037948b6e137916d4f760e5705d8e2b5a17bad7ffe03081a7223e2983f4bf",
    "03_closed_loop.py": "15204c5a43131ba39fd9643e4a6db59932b5d1e57819e66e0c8cbc23e6b4f731",
    "04_masking_gradients.py": "40d3824b3f9c37aba955f9966b869f23ff62d2701994831429051c570e06f8c2",
}


@pytest.mark.parametrize("name", list(STDOUT_DIGESTS))
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
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_DIGESTS[name]

"""The experiment scripts build ModelConfig and call train directly, so
an API change can break them without touching the package's own tests.
Each runs here once, in a fresh interpreter, on a tiny corpus."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = ["--users", "8", "--sessions", "6", "--vocab", "6", "--epochs", "1"]


@pytest.mark.parametrize("script, extra", [
    ("run_alpha_sweep.py", ["--alphas", "0.5,1.0", "--seeds", "1"]),
    ("run_baseline_comparison.py", []),
])
def test_script_runs(script, extra):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                           *TINY, *extra], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr

"""Command-line checks of the scripts under ``scripts/``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_step_faults_rejects_steps_below_one(steps):
    """A step count below 1 is a usage error (exit code 2), reported before any training."""
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "step_faults.py"), "--steps", steps],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert f"--steps must be at least 1, got {steps}" in run.stderr
    assert run.stdout == ""

"""The experiment scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lindbladsde.presets import PRESET_NAMES

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, rows", [
    ("trace_contrast.py",
     ["--t-final", "0.1", "--dt", "1e-3", "--trajectories", "8"], len(PRESET_NAMES)),
    ("ensemble_convergence.py", ["--t-final", "0.01", "--counts", "8", "16"], 2),
])
def test_script_runs(script, args, rows):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) >= rows + 1
    assert all("nan" not in line for line in lines)

"""Every script in demos/ runs to completion with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WARNINGS = ("error::RuntimeWarning", "error::DeprecationWarning", "error::ResourceWarning")


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # A missing dataset path makes benchmark_cv.py fabricate its stand-in log.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OCSLAB_DRIVING_CSV": str(tmp_path / "missing.csv")}
    flags = [arg for warning in WARNINGS for arg in ("-W", warning)]
    result = subprocess.run([sys.executable, *flags, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr

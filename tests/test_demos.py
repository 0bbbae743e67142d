"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run(tmp_path):
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr}"

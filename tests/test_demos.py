"""The demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_environment_walkthrough_demo_runs(tmp_path):
    assert "spectral efficiency of cell 1" in _run_demo(
        "01_environment_walkthrough.py", tmp_path)


def test_train_similarity_and_transfer_demos_run(tmp_path):
    """Demo 03 reads the artifacts demo 02 leaves in the working directory."""

    assert "<- selected" in _run_demo("02_train_and_similarity.py", tmp_path)
    assert "overall gain" in _run_demo("03_transfer_gain.py", tmp_path)

"""Smoke tests for the scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_toy_experiment_writes_its_outputs(tmp_path):
    out_dir = tmp_path / "toy"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "toy_experiment.py"), "--pairs", "2",
         "--size", "12", "--epochs", "1", "--width", "2", "--lut-size", "3",
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = {"toy.hzf", "loss_history.txt", "target.png",
                "step_000.png", "step_001.png", "step_002.png"}  # 2 solver steps
    assert expected <= set(p.name for p in out_dir.iterdir())

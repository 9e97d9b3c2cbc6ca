"""Smoke tests for the scripts under scripts/."""

import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hazeflow.checkpoint import load_checkpoint

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("lam", ["0.5", "0"])
def test_toy_experiment_writes_its_outputs(tmp_path, lam):
    out_dir = tmp_path / "toy"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "toy_experiment.py"), "--pairs", "2",
         "--size", "12", "--epochs", "1", "--width", "2", "--lut-size", "3",
         "--lambda", lam, "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = {"toy.hzf", "loss_history.txt", "target.png",
                "step_000.png", "step_001.png", "step_002.png"}  # 2 solver steps
    assert expected <= set(p.name for p in out_dir.iterdir())
    ckpt = load_checkpoint(str(out_dir / "toy.hzf"))  # written by `hazeflow train`
    assert {"seed", "epoch", "best_val_loss", "best_epoch"} <= set(ckpt.metadata)
    if lam == "0":
        assert ckpt.lut is None


def test_bench_pairs_measures_an_output_change(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(b"\x00\x01\x02\x03")
    b.write_bytes(b"\x00\x09\x02\x07\x05")
    assert bench_pairs.differing_bytes(a, b) == 3  # two bytes and the extra one
    assert bench_pairs.differing_bytes(a, a) == 0

    saved = {"parent": str(tmp_path / "p.npz"), "change": str(tmp_path / "c.npz")}
    np.savez(saved["parent"], **{"s.0": np.zeros(3, np.float32), "s.1": np.ones(2),
                                 "t.0": np.zeros(2)})
    np.savez(saved["change"], **{"s.0": np.array([0, -0.25, 0.5], np.float32),
                                 "s.1": np.ones(2), "t.0": np.zeros(3)})
    assert bench_pairs.max_abs_diff(saved, "s") == 0.5
    assert bench_pairs.max_abs_diff(saved, "t") is None  # shapes differ


def test_reach_lists_lines_no_process_ran(tmp_path):
    # a child process of the traced command runs DivergenceError.__init__
    child = tmp_path / "child.py"
    child.write_text("from hazeflow.errors import DivergenceError\n"
                     "DivergenceError('x', 1)\n")
    parent = tmp_path / "parent.py"
    parent.write_text("import subprocess, sys\n"
                      f"subprocess.run([sys.executable, {str(child)!r}], check=True)\n")
    errors = (SCRIPTS.parent / "src" / "hazeflow" / "errors.py").read_text().splitlines()
    line = f"src/hazeflow/errors.py:{errors.index('        self.step = step') + 1}: " \
        "self.step = step"

    def unreached(script):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "reach.py"),
             f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    importer = tmp_path / "importer.py"
    importer.write_text("import hazeflow.errors\n")
    assert line in unreached(importer)
    followed = unreached(parent)
    assert line not in followed
    assert followed[-1].endswith("(1 commands, 2 traced processes)")

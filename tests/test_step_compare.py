"""`scripts/step_compare.py` runs both trees and holds them to the same bits.

It purges `wwae` from `sys.modules`, so it runs in a child process here.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def step_compare(src_a: Path, src_b: Path) -> subprocess.CompletedProcess:
    argv = [str(ROOT / "scripts" / "step_compare.py"), str(src_a), str(src_b)]
    argv += ["--workload", "ring_w2", "--blocks", "2", "--steps", "5"]
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60)


def test_same_tree_twice_is_identical():
    start = time.monotonic()
    proc = step_compare(SRC, SRC)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[2:4]] == ["0", "1"]
    assert lines[4].startswith("median_change=") and lines[4].endswith("/2")
    assert lines[5] == "theta identical after every block"
    assert elapsed < 2.0


def test_different_bits_exit_1(tmp_path):
    shutil.copytree(SRC / "wwae", tmp_path / "wwae", ignore=shutil.ignore_patterns("__pycache__"))
    nn = tmp_path / "wwae" / "nn.py"
    nn.write_text(nn.read_text().replace("ADAM_EPS = 1e-8", "ADAM_EPS = 2e-8"))
    proc = step_compare(SRC, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == "theta differs after block 0"

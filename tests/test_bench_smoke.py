"""The benchmark's smoke run: every workload at a tiny size, traced and
untraced, with its output checks (the dense log-ML oracle and the recorded
MAP log-MLs of ``bench/reference.json``). An optimizer change that stops
short of a recorded optimum fails here."""

import subprocess
import sys
from pathlib import Path


def test_smoke_run_passes():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           "--smoke"], cwd=root, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "smoke: ok" in done.stdout

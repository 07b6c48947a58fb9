"""The benchmark's smoke mode as a test.

``bench/run.py --smoke`` runs every workload at its smallest size, checks
each answer and shows that each checker flags a corrupted one, so a kernel
change that breaks an answer the benchmark checks fails here too.  It
writes no files.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"

"""The benchmark's tracer reads the arguments of every linalg call.

perfbench/tracing.py takes len(), [0] and tuple() of each row list passed
to nullspace/solve/rref/rank, so a linalg call it cannot read fails the
traced smoke run of the workload that makes it.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["certify", "ext", "lab"])
def test_traced_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True

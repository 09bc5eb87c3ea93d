"""The benchmark's own output checks, run as the benchmark runs them.

perfbench checks every pass it times: the CSV read-back is exact, calibration
lands within its tolerance, the simulated baseline lies within 3 SE of the
closed form, passes and worker counts give identical outputs, and every
layer reports.  A change that breaks one of them makes the benchmark
report incorrect outputs, so the test suite runs one short traced pass of it.
This only reads ``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_checks_pass():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled_serial",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)
    assert report["errors"] == []
    failed = {name: check for name, check in report["checks"].items() if not check["ok"]}
    assert not failed
    assert result["correct"] is True
    assert result["failed"] == 0

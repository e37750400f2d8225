"""The benchmark's self-test, run as part of the test suite.

``perfbench/tracing.py`` wraps program functions by attribute name, so a
refactor that drops or renames one of them breaks every traced benchmark
run.  The self-test runs each workload traced and untraced at n=12 (about
20 s on a 2-core machine) and checks the printed metrics and the gate.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

"""The benchmark harness's self-tests, run as part of this suite.

They check that every traced wrapper of perfbench/tracing.py is still reached
by some workload, so a refactor that routes around one fails here. They run in
a subprocess because perfbench/tests has its own conftest.py, which cannot be
collected in one session with tests/conftest.py.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]

"""Make the benchmark modules and the checkout's tthf importable."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import rep  # noqa: E402

rep.import_tthf()

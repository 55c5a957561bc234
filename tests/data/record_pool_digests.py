"""Record pool_digests.json: the output bytes of every benchmark pool seed.

    python3 tests/data/record_pool_digests.py [--configs-from-perfbench]

For each workload in pool_digests.json and each seed of its pool, runs the
one-seed `run_experiment` and records the SHA-256 of that seed's trace CSV,
control CSV and summary.json. tests/test_pool_bytes.py checks the program
against the file.

The workload configs stay as the file holds them, so that a change to
perfbench/workloads.py leaves the check alone. --configs-from-perfbench copies
them in again from perfbench/workloads.py (and starts a missing file).

Re-recording says that the program's outputs are meant to change: name in
CHANGES.md which files moved and why.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DIGESTS = HERE / "pool_digests.json"
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

from conftest import pool_run_digests  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs-from-perfbench", action="store_true")
    args = parser.parse_args(argv)
    if args.configs_from_perfbench:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import POOL, WORKLOADS

        configs = {name: w.config for name, w in WORKLOADS.items()}
        pool = POOL
    else:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        configs = {name: entry["config"] for name, entry in recorded["workloads"].items()}
        pool = recorded["pool"]
    workloads = {}
    for name, config in sorted(configs.items()):
        with tempfile.TemporaryDirectory() as tmp:
            seeds = {str(seed): pool_run_digests(config, seed, Path(tmp) / str(seed)) for seed in range(pool)}
        workloads[name] = {"config": config, "seeds": seeds}
        print(f"{name}: {pool} seeds recorded", file=sys.stderr)
    DIGESTS.write_text(json.dumps({"pool": pool, "workloads": workloads}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

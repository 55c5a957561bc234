"""The output bytes of the benchmark workloads' pool seeds, against tests/data/pool_digests.json.

The file holds the three workload configs and, for each of the pool's seeds,
the SHA-256 of the trace CSV, control CSV and summary.json of its one-seed run.
tests/data/record_pool_digests.py re-records it.
"""

import json
from pathlib import Path

import pytest

from conftest import pool_run_digests

RECORDED = json.loads((Path(__file__).parent / "data" / "pool_digests.json").read_text(encoding="utf-8"))
WORKLOADS = RECORDED["workloads"]


def mismatches(name: str, seed: str, out_dir) -> list:
    """'workload seed file' for each file of the seed's run whose bytes moved."""
    got = pool_run_digests(WORKLOADS[name]["config"], int(seed), out_dir)
    return [f"{name} seed {seed} {key}" for key, digest in WORKLOADS[name]["seeds"][seed].items() if got[key] != digest]


class TestPoolBytes:
    def test_every_seed_of_the_pool_is_recorded(self):
        assert all(sorted(map(int, w["seeds"])) == list(range(RECORDED["pool"])) for w in WORKLOADS.values())

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_first_pool_seed_writes_its_recorded_bytes(self, name, tmp_path):
        assert mismatches(name, "0", tmp_path) == []

    def test_every_pool_seed_writes_its_recorded_bytes(self, request, tmp_path):
        if not request.config.getoption("--pool-bytes"):
            pytest.skip("all pool seeds run with --pool-bytes")
        moved = [
            line
            for name in sorted(WORKLOADS)
            for seed in sorted(WORKLOADS[name]["seeds"], key=int)
            for line in mismatches(name, seed, tmp_path / name / seed)
        ]
        assert moved == [], "\n".join(moved)

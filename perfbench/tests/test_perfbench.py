"""Self-tests of the benchmark harness (short runs; about 10 s in all).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys

import pytest

import rep
import run
import tracing
import tthf
from workloads import EXPECTED_SPANS, WORKLOADS

SHORT_T = {"certified-quad": 10, "adaptive-svm": 20, "lossy-minibatch-seeds": 10}


def short_rep(name, tmp_path, trace, workers=1, seeds=None):
    workload = WORKLOADS[name]
    return rep.run_rep(
        tthf, workload, seeds or workload.run_seeds(0), trace, tmp_path / f"{name}-{trace}-{workers}",
        T=SHORT_T[name], workers=workers, setup_repeats=1,
    )


def target_objects():
    return {
        (owner_path, attr): tracing.resolve_owner(tthf, owner_path).__dict__[attr]
        for owner_path, attr, _, _ in tracing.TARGETS
    }


def test_every_wrapper_is_expected_on_some_workload():
    names = {name for _, _, name, _ in tracing.TARGETS}
    assert set().union(*EXPECTED_SPANS.values()) == names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reaches_every_expected_layer(name, tmp_path):
    result = short_rep(name, tmp_path, trace=1)
    assert result["failed_seeds"] == 0
    missing = sorted(s for s in EXPECTED_SPANS[name] if not result["span_counts"].get(s))
    assert not missing, f"{name}: no calls recorded for {missing}"
    layers = result["layers"]
    assert set(layers) | {"trace_overhead_s"} == set(run.UNITS["per_layer"])
    assert layers["trainer.steps"] == SHORT_T[name] * WORKLOADS[name].n_seeds
    assert layers["consensus.gossip_calls"] == layers["trainer.steps"] * 25
    assert abs(sum(result["shares"].values()) - 1.0) < 1e-9


def test_traced_run_matches_untraced_outputs(tmp_path):
    untraced = short_rep("adaptive-svm", tmp_path, trace=0)
    traced = short_rep("adaptive-svm", tmp_path, trace=1)
    assert {s: c["sha256"] for s, c in untraced["checks"].items()} == {
        s: c["sha256"] for s, c in traced["checks"].items()
    }


def test_lossy_digests_do_not_depend_on_worker_count(tmp_path):
    one = short_rep("lossy-minibatch-seeds", tmp_path, trace=0, workers=1)
    two = short_rep("lossy-minibatch-seeds", tmp_path, trace=0, workers=2)
    assert one["failed_seeds"] == two["failed_seeds"] == 0
    assert {s: c["sha256"] for s, c in one["checks"].items()} == {
        s: c["sha256"] for s, c in two["checks"].items()
    }


def test_untraced_run_leaves_tthf_functions_untouched(tmp_path, monkeypatch):
    before = target_objects()

    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run built a span recorder")

    monkeypatch.setattr(tracing, "Recorder", refuse)
    short_rep("certified-quad", tmp_path, trace=0)
    after = target_objects()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values())


def test_recorder_restores_every_target(tmp_path):
    before = target_objects()
    with tracing.Recorder(tthf):
        during = target_objects()
    assert all(during[k] is not before[k] for k in before)
    assert all(target_objects()[k] is before[k] for k in before)


def test_output_checks_count_a_corrupted_trace(tmp_path):
    result = short_rep("certified-quad", tmp_path, trace=0, seeds=[5])
    run_dir = tmp_path / "certified-quad-0-1" / "run"
    ref = {5: {"final_gap": result["checks"]["5"]["final_gap"], "sha256": result["checks"]["5"]["sha256"]}}
    assert rep.check_seed(run_dir, 5, SHORT_T["certified-quad"], ref)["failures"] == []

    path = run_dir / "trace_seed5.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[-1][1] = repr(float(rows[-1][1]) * 1.001)
    rows[2][3] = "nan"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    check = rep.check_seed(run_dir, 5, SHORT_T["certified-quad"], ref)
    assert check["digests_match"] is False
    assert any("non-finite" in f for f in check["failures"])
    assert any("reference" in f for f in check["failures"])

    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows[:-2])
    assert any("rows" in f for f in rep.check_seed(run_dir, 5, 10, None)["failures"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(rep.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(rep.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certified-quad", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

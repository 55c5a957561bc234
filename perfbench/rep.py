"""One benchmark repetition, run in a fresh process by run.py.

    python3 perfbench/rep.py --workload NAME --seeds 3,17 --trace 0 --outdir DIR

Imports tthf from the checkout's src/ and warms up. Then it times set-up
(``load_config`` plus ``build_task``) several times and one
``run_experiment`` call, with the span recorder installed when --trace is 1,
and times a calibration kernel before, between and after them. It checks every
seed trace that run wrote and prints one JSON object as the last line of its
standard output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# A seed's final loss gap must match the reference to this relative tolerance:
# loose enough for reassociated floating-point sums, tight enough that any
# change in what the protocol computes fails the check.
FINAL_GAP_RTOL = 1e-6

SETUP_REPEATS = 5
WARMUP_T = 10
CALIBRATION_ROUNDS = 7500


def import_tthf():
    """Import tthf from this checkout's src/, never from an installed copy."""
    if not (SRC / "tthf" / "__init__.py").is_file():
        raise ImportError(f"no tthf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tthf

    if Path(tthf.__file__).resolve().parent != SRC / "tthf":
        raise ImportError(f"imported tthf from {tthf.__file__}, not from {SRC}")
    return tthf


def load_reference(workload) -> dict:
    """seed -> reference entry for the workload as defined now."""
    entry = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)
    if entry is None or entry["config"] != workload.config:
        raise ValueError(f"reference.json does not match workload {workload.name}; rerun make_reference.py")
    return {int(seed): ref for seed, ref in entry["seeds"].items()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_seed(outdir: Path, seed: int, configured_T: int, reference: dict | None) -> dict:
    """Output checks for one seed trace; 'failures' lists every check it failed.

    With reference=None the final gap is not compared (short test runs).
    """
    trace_path = outdir / f"trace_seed{seed}.csv"
    control_path = outdir / f"trace_seed{seed}_control.csv"
    failures = []
    with trace_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    values = [[float(v) for v in row] for row in rows]
    if not all(math.isfinite(v) for row in values for v in row):
        failures.append("non-finite value")
    effective_T = configured_T
    if control_path.exists():
        with control_path.open(newline="", encoding="utf-8") as fh:
            control = list(csv.DictReader(fh))
        effective_T = int(control[-1]["t_k"]) if control else configured_T
    if len(rows) != effective_T or [int(r[0]) for r in values] != list(range(1, len(rows) + 1)):
        failures.append(f"{len(rows)} rows for effective T={effective_T}")
    final_gap = values[-1][1] if values else math.nan
    digests = {"trace": sha256(trace_path)}
    if control_path.exists():
        digests["control"] = sha256(control_path)
    digests_match = None
    if reference is not None:
        ref = reference.get(seed)
        if ref is None:
            failures.append(f"seed {seed} has no reference")
        elif not math.isclose(final_gap, ref["final_gap"], rel_tol=FINAL_GAP_RTOL, abs_tol=1e-12):
            failures.append(f"final gap {final_gap!r} != reference {ref['final_gap']!r}")
        if ref is not None:
            digests_match = digests == ref["sha256"]
    return {
        "effective_T": effective_T,
        "final_gap": final_gap,
        "sha256": digests,
        "digests_match": digests_match,
        "failures": failures,
    }


def calibrate() -> float:
    """Seconds for a fixed kernel of small numpy operations and Python dispatch.

    The kernel uses no tthf code, so a change to the program leaves it alone.
    Run right before and after the timed calls, it measures how fast the
    machine is at that moment; run.py scales the timings by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    V = rng.random((5, 5)) / 5.0
    z = rng.random((5, 5))
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        z = V @ z + 0.1
        acc += float(np.sqrt(((z - z.mean(axis=0)) ** 2).sum(axis=1)).max())
        row = {"i": i, "acc": acc}
        acc -= 0.5 * row["acc"]
    return time.perf_counter() - start


def run_rep(tthf, workload, seeds, trace, outdir, T=None, workers=1, reference=None,
            setup_repeats=SETUP_REPEATS, spans_path=None) -> dict:
    """Warm up, time set-up and one run_experiment, check outputs; returns a result dict."""
    from tthf import experiment

    outdir = Path(outdir)
    configured_T = T or workload.T
    cfg = workload.experiment_config(seeds, outdir / "run", T=T)

    experiment.run_experiment(
        workload.experiment_config(seeds[:1], outdir / "warmup", T=min(WARMUP_T, configured_T))
    )
    calibration_s = [calibrate()]
    setup_s = []
    for _ in range(setup_repeats):
        start = time.perf_counter()
        task = experiment.build_task(experiment.load_config(cfg))
        setup_s.append(time.perf_counter() - start)

    calibration_s.append(calibrate())
    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder(tthf, run_id=f"{workload.name}/{','.join(map(str, seeds))}")
        with recorder:
            start = time.perf_counter()
            summary = experiment.run_experiment(cfg, workers=workers)
            wall_s = time.perf_counter() - start
    else:
        start = time.perf_counter()
        summary = experiment.run_experiment(cfg, workers=workers)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s.append(calibrate())

    run_dir = outdir / "run"
    checks = {
        seed: check_seed(run_dir, seed, configured_T, reference) for seed in seeds
    }
    effective_steps = sum(c["effective_T"] for c in checks.values())
    mean_final = sum(c["final_gap"] for c in checks.values()) / len(seeds)
    if not math.isclose(summary["final_mean_gap"], mean_final, rel_tol=1e-12, abs_tol=1e-15):
        for c in checks.values():
            c["failures"].append("summary final_mean_gap disagrees with the traces")
    result = {
        "seeds": list(seeds),
        "trace": bool(trace),
        "calibration_s": sum(calibration_s) / len(calibration_s),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "device_steps_per_s": effective_steps * task.n_devices / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "final_gap": summary["final_mean_gap"],
        "horizon_ratio": effective_steps / (configured_T * len(seeds)),
        "checks": {str(seed): c for seed, c in checks.items()},
        "failed_seeds": sum(1 for c in checks.values() if c["failures"]),
    }
    if recorder is not None:
        from tracing import layer_metrics

        write_bytes = sum(p.stat().st_size for p in run_dir.iterdir())
        self_s, calls = recorder.self_times()
        result["layers"], result["shares"] = layer_metrics(
            recorder, self_s, calls, configured_T * len(seeds), write_bytes
        )
        result["span_counts"] = calls
        if spans_path is not None:
            recorder.write_spans(spans_path)
    return result


def environment(tthf) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "tthf": tthf.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated run seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--spans", default=None, help="write the traced run's spans to this CSV")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    tthf = import_tthf()
    workload = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]
    try:
        result = run_rep(
            tthf, workload, seeds, args.trace, args.outdir,
            reference=load_reference(workload), spans_path=args.spans,
        )
    except Exception:  # a seed run that raised counts as failed; report and carry on
        traceback.print_exc()
        result = {"seeds": seeds, "trace": bool(args.trace), "error": traceback.format_exc(),
                  "failed_seeds": len(seeds)}
    result["environment"] = environment(tthf)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

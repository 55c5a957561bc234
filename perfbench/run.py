"""tthf benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload certified-quad --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh process (perfbench/rep.py) with the BLAS
pinned to one thread. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full results, with every
repetition, the self-time shares, the output digests and the environment, go
to --out (default .perfbench/results/<workload>-trace<t>-seed<n>.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every thread count a BLAS or OpenMP runtime may read. OpenBLAS otherwise starts
# one thread per core, which would compete with the run's own threads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_REPS = 3
REP_TIMEOUT_S = 100
# The shared machine's speed drifts by a third over minutes. Each repetition
# therefore times a fixed calibration kernel (rep.calibrate) around its timed
# calls, and times are reported at the speed where that kernel takes this
# long: scaled by NOMINAL_CALIBRATION_S / measured kernel time. The unscaled
# values stay in the results file.
NOMINAL_CALIBRATION_S = 0.1

# metric names and units, as BENCHMARK.json declares them
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {
    section: {m["name"]: m["unit"] for m in BENCHMARK[section]} for section in ("end_to_end", "per_layer")
}


def at_nominal_speed(rep: dict, value: float, unit: str) -> float:
    speed = NOMINAL_CALIBRATION_S / rep["calibration_s"]
    return value * speed if unit == "s" else value / speed if unit == "1/s" else value


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": statistics.median(values),
            "q3": q[2], "max": max(values)}


def run_child(workload: str, seeds: list, trace: int, tmp: Path, spans: Path | None) -> dict:
    """One repetition in a fresh interpreter; returns its parsed result."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seeds", ",".join(map(str, seeds)), "--trace", str(trace), "--outdir", str(tmp)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except subprocess.TimeoutExpired:
        proc, result = None, None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None:
        stderr = proc.stderr if proc is not None else f"timed out after {REP_TIMEOUT_S} s"
        sys.stderr.write(stderr)
        result = {"seeds": seeds, "trace": bool(trace), "error": stderr[-2000:],
                  "failed_seeds": len(seeds)}
    elif "error" in result:
        sys.stderr.write(result["error"])
    return result


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and a digest of src/tthf."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tthf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def summarize(workload, seed: int, seconds: float, trace: int, reps: list) -> dict:
    child_env = [r.pop("environment") for r in reps if "environment" in r]
    untraced = [r for r in reps if not r["trace"] and "error" not in r]
    traced = [r for r in reps if r["trace"] and "error" not in r]
    attempted = sum(len(r["seeds"]) for r in reps)
    failed = sum(r["failed_seeds"] for r in reps)
    results = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "run_seeds": workload.run_seeds(seed),
        "T": workload.T,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "environment": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "threads": THREAD_ENV,
            **(child_env[0] if child_env else {}),
            **source_identity(),
        },
        "repetitions": reps,
    }

    stats = {}
    e2e = UNITS["end_to_end"]
    if untraced:
        stats["end_to_end"] = {
            "setup_s": quartiles([at_nominal_speed(r, v, "s") for r in untraced for v in r["setup_s"]]),
            **{m: quartiles([at_nominal_speed(r, r[m], e2e[m]) for r in untraced])
               for m in e2e if m != "setup_s"},
        }
        stats["unscaled"] = {
            "calibration_s": quartiles([r["calibration_s"] for r in untraced]),
            "setup_s": quartiles([v for r in untraced for v in r["setup_s"]]),
            "wall_s": quartiles([r["wall_s"] for r in untraced]),
        }
        results["horizon_ratio"] = statistics.median(r["horizon_ratio"] for r in untraced)
    if traced:
        units = UNITS["per_layer"]
        layers = {m: quartiles([at_nominal_speed(r, r["layers"][m], units[m]) for r in traced])
                  for m in traced[0]["layers"]}
        if untraced:
            overhead = (statistics.median(at_nominal_speed(r, r["wall_s"], "s") for r in traced)
                        - statistics.median(at_nominal_speed(r, r["wall_s"], "s") for r in untraced))
            layers["trace_overhead_s"] = {"n": len(traced), "median": overhead}
        stats["per_layer"] = layers
        results["self_time_shares"] = {
            layer: statistics.median(r["shares"].get(layer, 0.0) for r in traced)
            for layer in sorted({k for r in traced for k in r["shares"]})
        }
    results["stats"] = stats
    results["digests_match"] = all(
        c["digests_match"] for r in reps if "checks" in r for c in r["checks"].values()
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="results file to write")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tthf" / "__init__.py").is_file():
        print(f"error: no tthf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = workload.run_seeds(args.seed)
    work_dir = ROOT / ".perfbench"
    out = args.out or work_dir / "results" / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    spans = work_dir / "spans" / f"{workload.name}-seed{args.seed}.csv" if args.trace else None
    for d in (work_dir / "tmp", out.parent) + ((spans.parent,) if spans else ()):
        d.mkdir(parents=True, exist_ok=True)

    # a traced repetition is a pair: one untraced and one traced child, in
    # alternating order, so trace_overhead_s compares like with like
    modes = (0,) if not args.trace else (0, 1)
    reps: list = []
    start = time.perf_counter()
    longest = 0.0
    while len(reps) < MIN_REPS * len(modes) or time.perf_counter() - start + longest <= args.seconds:
        began = time.perf_counter()
        order = modes if len(reps) // len(modes) % 2 == 0 else modes[::-1]
        for mode in order:
            tmp = work_dir / "tmp" / f"{os.getpid()}-{len(reps)}"
            reps.append(run_child(workload.name, seeds, mode, tmp, spans if mode else None))
        longest = max(longest, time.perf_counter() - began)
        if any("error" in r for r in reps):
            break

    results = summarize(workload, args.seed, args.seconds, args.trace, reps)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    section = "per_layer" if args.trace else "end_to_end"
    stats = results["stats"].get(section, {})
    metrics = {m: {"value": stats[m]["median"], "unit": unit}
               for m, unit in UNITS[section].items() if m in stats}
    print(json.dumps({
        "correct": results["failed"] == 0,
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

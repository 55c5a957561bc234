"""Record reference.json: per-seed final loss gap and trace digests.

    python3 perfbench/make_reference.py [--workload NAME ...]

For every workload and every seed of the pool, runs the plain, untraced
``run_experiment`` and records the seed's effective horizon, final
``loss_gap_sampled`` and the SHA-256 of its trace CSVs. Benchmark runs check
their outputs against this file. Rerun it only when a workload definition
changes, or when a change to the program is meant to change its results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from rep import REFERENCE, ROOT, check_seed, import_tthf
from workloads import POOL, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    import_tthf()
    from tthf import experiment

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds = {}
        (ROOT / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench" / "tmp"))
        try:
            # one seed per call: seeds whose horizons differ cannot share a run
            for seed in range(POOL):
                experiment.run_experiment(workload.experiment_config([seed], tmp))
                check = check_seed(tmp, seed, workload.T, None)
                if check["failures"]:
                    raise RuntimeError(f"{name} seed {seed}: {check['failures']}")
                seeds[str(seed)] = {
                    "effective_T": check["effective_T"],
                    "final_gap": check["final_gap"],
                    "sha256": check["sha256"],
                }
            print(f"{name}: {POOL} seeds recorded", file=sys.stderr)
        finally:
            shutil.rmtree(tmp)
        reference[name] = {"config": workload.config, "T": workload.T, "seeds": seeds}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's named workloads and how a run's inputs follow from its seed.

Every workload runs on the 25x5 cluster network (topology seed 11) with fixed
data seeds. Only the protocol run seeds vary: they are drawn from --seed out of
a pool of POOL seeds, for each of which ``reference.json`` records the final
loss gap and the trace digests that ``run_experiment`` produced.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

POOL = 64

_TOPOLOGY = {"n_clusters": 25, "cluster_size": 5, "seed": 11}
_REGRESSION_DATA = {"m": 5, "n_labels": 10, "per_label": 250, "separation": 1.0, "seed": 7}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # run_experiment config without seeds and output_dir
    n_seeds: int

    @property
    def T(self) -> int:
        return self.config["schedule"]["T"]

    def run_seeds(self, seed: int) -> list[int]:
        """The protocol run seeds for one benchmark seed, all from the reference pool."""
        return sorted(random.Random(seed).sample(range(POOL), self.n_seeds))

    def experiment_config(self, seeds, output_dir, T=None) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["seeds"] = list(seeds)
        cfg["output_dir"] = str(output_dir)
        if T is not None:
            cfg["schedule"]["T"] = T
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certified-quad",
            why="criterion-5 certified rounds on a quadratic: consensus-bound, losses on the fast path",
            config={
                "dataset": _REGRESSION_DATA,
                "topology": _TOPOLOGY,
                "loss": {"kind": "linear_regression", "reg": 6.0},
                "schedule": {
                    "T": 300,
                    "tau": 5,
                    "gamma": {"mode": "certified", "phi": 2.0, "max_rounds": 1000},
                },
                "eval_accuracy": False,
            },
            n_seeds=2,
        ),
        Workload(
            name="adaptive-svm",
            why="criterion-12 adaptive controller on a mini-batch SVM: flooding, metric eval, line search",
            config={
                "dataset": {"m": 5, "n_labels": 2, "per_label": 400, "separation": 2.5, "seed": 7},
                "topology": _TOPOLOGY,
                "loss": {"kind": "squared_hinge_svm", "reg": 27.0},
                "sgd": {"batch_size": 4},
                "schedule": {"mode": "adaptive", "T": 150},
                "control": {
                    "tau_max": 20,
                    "tau1": 10,
                    "zeta_frac": 0.01,
                    "sigma_batch": 8,
                    "xi_boost": 600.0,
                },
                "cost": {"c1": 1.0, "c2": 1.0, "c3": 0.1},
                "init": {"kind": "offset", "scale": 3.0, "seed": 99},
                "eval_accuracy": True,
            },
            n_seeds=1,
        ),
        Workload(
            name="lossy-minibatch-seeds",
            why="mini-batch regression with lossy fixed-round gossip over several seeds",
            config={
                "dataset": _REGRESSION_DATA,
                "topology": _TOPOLOGY,
                "loss": {"kind": "linear_regression", "reg": 6.0},
                "sgd": {"batch_size": 4},
                "schedule": {
                    "T": 100,
                    "tau": 20,
                    "gamma": {"mode": "fixed", "value": 4, "cadence": 1},
                },
                "outage": {"enabled": True},
                "eval_accuracy": False,
            },
            # run sequentially: on the worker pool (workers=2) the medians of
            # ten runs spread by 4-10%, and the calibration does not track it
            n_seeds=4,
        ),
    )
}

# Span names each workload must reach (see tracing.TARGETS); the self-test
# checks them so that a refactor routing around a wrapper shows as a missing
# layer rather than as a silent zero.
_COMMON = {
    "experiment.run_experiment", "experiment.load_config", "experiment.build_task",
    "experiment.run_single", "trainer.run_protocol", "TrainTask.global_loss",
    "losses.solve_optimum", "losses.smoothness_constants", "trainer.run_consensus",
    "trainer.consensus_error", "control.select_alpha", "trainer.dispersion_sample",
    "data.gen_synthetic", "data.partition", "topology.build_network",
    "MetricsTrace.to_csv", "MetricsTrace.control_to_csv", "Path.write_text",
}
EXPECTED_SPANS = {
    "certified-quad": _COMMON | {
        "losses.quadratic_stats", "bounds.solve_optimum", "consensus.divergence_exact",
        "control.gamma_rounds", "bounds.thm2_constants",
    },
    "adaptive-svm": _COMMON | {
        "losses.grad_full", "losses.grad_sgd", "TrainTask.accuracy", "control.divergence_estimate",
        "control.gamma_rounds", "control.solve_P", "control.predict_interval_cost",
        "control.run_adaptive", "control.fit_predictor",
        "control.phi_max", "bounds.diversity_fit", "bounds.thm2_constants",
    },
    "lossy-minibatch-seeds": _COMMON | {"losses.quadratic_stats", "losses.grad_sgd"},
}

"""Outside-in span recorder for the traced benchmark run.

Each target below is a public ``tthf`` function or method, patched on the
object its caller looks it up on: ``trainer`` binds ``run_consensus``,
``consensus_error`` and ``dispersion_sample`` at import time, and ``control``
binds ``divergence_estimate``, so those are patched on the importing module,
not on the defining one. Nothing is patched unless a :class:`Recorder` is
installed, so the untraced run executes the program's own function objects.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of it that its child spans cover. A span opened by a worker
thread of ``run_experiment`` with nothing open on that thread is a child of
the outermost span open on the main thread, so the main thread's wait on the
pool is covered by the seed runs and is not counted as busy time.
"""

from __future__ import annotations

import csv
import functools
import itertools
import pathlib
import threading
import time

# (owner path, attribute, span name, layer). The owner path is resolved against
# the imported tthf package; "Path" is pathlib.Path, which run_experiment uses
# to write summary.json.
TARGETS = (
    ("experiment", "run_experiment", "experiment.run_experiment", "experiment"),
    ("experiment", "load_config", "experiment.load_config", "experiment"),
    ("experiment", "build_task", "experiment.build_task", "experiment"),
    ("experiment", "run_single", "experiment.run_single", "experiment"),
    ("trainer", "run_protocol", "trainer.run_protocol", "trainer"),
    ("losses", "grad_full", "losses.grad_full", "losses.grad"),
    ("losses", "grad_sgd", "losses.grad_sgd", "losses.grad"),
    ("trainer.TrainTask", "global_loss", "TrainTask.global_loss", "losses.eval"),
    ("trainer.TrainTask", "accuracy", "TrainTask.accuracy", "losses.eval"),
    ("losses", "solve_optimum", "losses.solve_optimum", "losses.optimum"),
    ("bounds", "solve_optimum", "bounds.solve_optimum", "losses.optimum"),
    ("losses", "smoothness_constants", "losses.smoothness_constants", "losses.optimum"),
    ("losses", "quadratic_stats", "losses.quadratic_stats", "losses.optimum"),
    ("trainer", "run_consensus", "trainer.run_consensus", "consensus.gossip"),
    ("trainer", "consensus_error", "trainer.consensus_error", "consensus.error"),
    ("consensus", "divergence_exact", "consensus.divergence_exact", "consensus.divergence"),
    ("control", "divergence_estimate", "control.divergence_estimate", "consensus.divergence"),
    ("control", "gamma_rounds", "control.gamma_rounds", "control.round_rule"),
    ("control", "solve_P", "control.solve_P", "control.line_search"),
    ("control", "predict_interval_cost", "control.predict_interval_cost", "control.line_search"),
    ("control", "run_adaptive", "control.run_adaptive", "control.refit"),
    ("control", "fit_predictor", "control.fit_predictor", "control.refit"),
    ("control", "select_alpha", "control.select_alpha", "control.refit"),
    ("control", "phi_max", "control.phi_max", "control.refit"),
    ("bounds", "diversity_fit", "bounds.diversity_fit", "control.refit"),
    ("bounds", "thm2_constants", "bounds.thm2_constants", "control.refit"),
    ("trainer", "dispersion_sample", "trainer.dispersion_sample", "bounds.dispersion"),
    ("data", "gen_synthetic", "data.gen_synthetic", "data.gen"),
    ("data", "partition", "data.partition", "data.partition"),
    ("topology", "build_network", "topology.build_network", "topology.build"),
    ("trainer.MetricsTrace", "to_csv", "MetricsTrace.to_csv", "experiment.write"),
    ("trainer.MetricsTrace", "control_to_csv", "MetricsTrace.control_to_csv", "experiment.write"),
    ("Path", "write_text", "Path.write_text", "experiment.write"),
)

LAYER_OF = {name: layer for _, _, name, layer in TARGETS}


def resolve_owner(tthf, owner_path: str):
    if owner_path == "Path":
        return pathlib.Path
    obj = tthf
    for part in owner_path.split("."):
        obj = getattr(obj, part)
    return obj


class Recorder:
    """Collects spans (id, name, start, end, parent id, run id) and counters.

    Use as a context manager: entering patches every target, leaving restores
    the original objects. Safe to use from the worker threads of
    ``run_experiment``: the open-span stack and the run id are per thread.
    """

    def __init__(self, tthf, run_id: str = "run"):
        self.tthf = tthf
        self.default_run_id = run_id
        self.spans: list[tuple] = []
        self.gamma_args: list[int] = []
        self.steps = 0
        self.aggregations = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []
        self._outer = 0  # outermost open span of the main thread

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        for owner_path, attr, name, _ in TARGETS:
            owner = resolve_owner(self.tthf, owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        on_result = {
            "trainer.run_consensus": self._count_gamma,
            "trainer.run_protocol": self._count_protocol,
        }.get(name)
        sets_run_id = name == "experiment.run_single"
        default_run_id = self.default_run_id
        main_thread = threading.main_thread()
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is main_thread:
                parent = 0
                recorder._outer = span_id
            else:
                parent = recorder._outer
            if sets_run_id:
                seed = kwargs["seed"] if "seed" in kwargs else args[2]
                local.run_id = f"{default_run_id}/seed{seed}"
            run_id = getattr(local, "run_id", default_run_id)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, run_id))
                if sets_run_id:
                    local.run_id = default_run_id
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _count_gamma(self, args, kwargs, result):
        gamma = kwargs["gamma"] if "gamma" in kwargs else args[2]
        self.gamma_args.append(int(gamma))

    def _count_protocol(self, args, kwargs, trace):
        with self._lock:
            self.steps += len(trace)
            self.aggregations += len(trace.boundaries)

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds, call count) per span name."""
        children: dict[int, list] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                children.setdefault(parent, []).append((start, end))
        child_time = {parent: _covered(intervals) for parent, intervals in children.items()}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span_id, name, start, end, _, _ in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def write_spans(self, path):
        """Dump every span as CSV, one row per span, in completion order."""
        with pathlib.Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "run_id"])
            writer.writerows(self.spans)


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    intervals.sort()
    total = 0.0
    lo, hi = intervals[0]
    for start, end in intervals[1:]:
        if start > hi:
            total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    return total + hi - lo


def layer_metrics(recorder: Recorder, self_s: dict, calls: dict, configured_steps: int,
                  write_bytes: int) -> tuple[dict, dict]:
    """(per-layer metrics, each layer's share of the summed self time) of one traced run.

    self_s and calls are Recorder.self_times(). With worker threads the shares
    are of the busy time summed over threads.
    """
    layer_s: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    for name, seconds in self_s.items():
        layer = LAYER_OF[name]
        layer_s[layer] = layer_s.get(layer, 0.0) + seconds
        layer_calls[layer] = layer_calls.get(layer, 0) + calls[name]
    total = sum(layer_s.values())
    shares = {layer: v / total for layer, v in sorted(layer_s.items())}

    gamma = recorder.gamma_args
    metrics = {
        "experiment.self_s": layer_s.get("experiment", 0.0),
        "trainer.self_s": layer_s.get("trainer", 0.0),
        "trainer.steps": recorder.steps,
        "trainer.aggregations": recorder.aggregations,
        "losses.grad_calls": layer_calls.get("losses.grad", 0),
        "losses.grad_s": layer_s.get("losses.grad", 0.0),
        "losses.eval_calls": layer_calls.get("losses.eval", 0),
        "losses.eval_s": layer_s.get("losses.eval", 0.0),
        "losses.optimum_s": layer_s.get("losses.optimum", 0.0),
        "consensus.gossip_calls": len(gamma),
        "consensus.gossip_s": layer_s.get("consensus.gossip", 0.0),
        "consensus.rounds": sum(gamma),
        "consensus.active_ratio": sum(1 for g in gamma if g > 0) / len(gamma) if gamma else 0.0,
        "consensus.error_s": layer_s.get("consensus.error", 0.0),
        "consensus.divergence_calls": layer_calls.get("consensus.divergence", 0),
        "consensus.divergence_s": layer_s.get("consensus.divergence", 0.0),
        "control.round_rule_calls": layer_calls.get("control.round_rule", 0),
        "control.round_rule_s": layer_s.get("control.round_rule", 0.0),
        "control.line_search_s": layer_s.get("control.line_search", 0.0),
        "control.line_search_candidates": calls.get("control.predict_interval_cost", 0),
        "control.refit_s": layer_s.get("control.refit", 0.0),
        "control.horizon_ratio": recorder.steps / configured_steps,
        "bounds.dispersion_s": layer_s.get("bounds.dispersion", 0.0),
        "data.gen_s": layer_s.get("data.gen", 0.0),
        "data.partition_s": layer_s.get("data.partition", 0.0),
        "topology.build_s": layer_s.get("topology.build", 0.0),
        "experiment.write_s": layer_s.get("experiment.write", 0.0),
        "experiment.write_bytes": write_bytes,
    }
    return metrics, shares

"""Experiment orchestration: config ingestion, multi-seed runs, cost accounting,
and plot-ready CSV/JSON emission."""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds, control, data, losses, topology, trainer
from .consensus import OutagePolicy
from .costs import CostParams
from .schedules import GammaPlan, StepSchedule, TrainingSchedule
from .trainer import MetricsTrace, TrainTask

SCHEMA_VERSION = 1


class HorizonMismatchError(RuntimeError):
    """Seed runs of one experiment ended at different effective horizons."""

    def __init__(self, horizons: dict):
        self.horizons = horizons
        listing = ", ".join(f"seed {seed}: T={T}" for seed, T in horizons.items())
        super().__init__(
            f"seed runs disagree on the effective horizon ({listing}); "
            "the adaptive controller relaxed T differently per seed, so no trace was written"
        )


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field path."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        super().__init__(f"config field '{path}': {message}")


# AdaptiveConfig fields the control block does not carry: they come from the
# schedule block
_NOT_IN_CONTROL_BLOCK = ("T", "gamma_max")

_DEFAULTS = {
    "dataset": {
        "kind": "synthetic",
        "m": 10,
        "n_labels": 10,
        "per_label": 40,
        "separation": 3.0,
        "seed": 7,
        "path": None,
        "has_header": False,
    },
    "partition": {"mode": "extreme", "seed": 13},
    "loss": {"kind": "linear_regression", "reg": 0.1},
    "topology": {
        "n_clusters": 25,
        "cluster_size": 5,
        "field_m": 50.0,
        "d_c": topology.DEFAULT_MIXING_STEP,
        "seed": 11,
        "max_attempts": 100,
        "channel": asdict(topology.ChannelParams()),
    },
    "sgd": {"batch_size": "full"},
    "step": {"kind": "diminishing", "gamma": "auto", "alpha": "auto", "eta": 0.01},
    "schedule": {
        "mode": "fixed",
        "T": None,
        "tau": 20,
        "gamma": asdict(GammaPlan()),
    },
    "aggregation": {"mode": "sampled"},
    "control": {
        **{
            f.name: f.default
            for f in fields(control.AdaptiveConfig)
            if f.name not in _NOT_IN_CONTROL_BLOCK
        },
        "xi": "auto",
    },
    "cost": asdict(CostParams()),
    "outage": {"enabled": False},
    "init": {"kind": "zeros", "scale": 1.0, "seed": 0},
    "replace_between_intervals": False,
    "eval_accuracy": True,
    "seeds": None,
    "output_dir": None,
}

_REQUIRED = (("schedule", "T"), ("seeds",), ("output_dir",))


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(path or "<root>", f"expected a mapping, got {type(user).__name__}")
    out = {}
    for key, default in defaults.items():
        sub_path = f"{path}.{key}" if path else key
        if key in user:
            # a truthy non-boolean, say the string "no", would silently switch a flag on
            if isinstance(default, bool) and not isinstance(user[key], bool):
                raise ConfigError(sub_path, "must be true or false")
            out[key] = _merge(default, user[key], sub_path) if isinstance(default, dict) else user[key]
        else:
            out[key] = json.loads(json.dumps(default)) if isinstance(default, dict) else default
    unknown = set(user) - set(defaults)
    if unknown:
        bad = sorted(unknown)[0]
        raise ConfigError(f"{path}.{bad}" if path else bad, "unknown field")
    return out


@dataclass
class ExperimentConfig:
    """The merged config plus the task-independent run objects built from it."""

    raw: dict
    channel: topology.ChannelParams
    cost: CostParams
    partition: data.PartitionPlan
    gamma_plan: GammaPlan
    schedule: TrainingSchedule
    outage: OutagePolicy
    adaptive: Optional[control.AdaptiveConfig]  # adaptive mode only
    # fixed mode only: load_config builds a constant step, build_task resolves a
    # diminishing one, whose 'auto' parameters need the task's mu and beta
    step: Optional[StepSchedule]

    def hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(source) -> ExperimentConfig:
    """Parse and validate a JSON config, filling documented defaults, and build its run objects."""
    raw = source
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError("<file>", f"config file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from None
    merged = _merge(_DEFAULTS, raw)
    for keys in _REQUIRED:
        node = merged
        for key in keys:
            node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            raise ConfigError(".".join(keys), "missing required field")
    _validate(merged)
    sched = merged["schedule"]
    # before the control block, which reads max_rounds as gamma_max
    gamma_plan = _parse("schedule.gamma", GammaPlan, **sched["gamma"])
    adaptive = None
    if sched["mode"] == "adaptive":
        ctrl = merged["control"]
        xi = None if ctrl["xi"] == "auto" else _parse("control.xi", float, ctrl["xi"])
        adaptive = _parse(
            "control", control.AdaptiveConfig, **{**ctrl, "xi": xi},
            T=sched["T"], gamma_max=sched["gamma"]["max_rounds"],
        )
    step = None
    if merged["step"]["kind"] == "constant":
        step = _parse("step", StepSchedule, kind="constant", eta_const=merged["step"]["eta"])
    make_schedule = TrainingSchedule if isinstance(sched["tau"], list) else TrainingSchedule.uniform
    config = ExperimentConfig(
        raw=merged,
        channel=_parse("topology.channel", topology.ChannelParams, **merged["topology"]["channel"]),
        cost=_parse("cost", CostParams, **merged["cost"]),
        partition=_parse("partition.mode", data.PartitionPlan, **merged["partition"]),
        gamma_plan=gamma_plan,
        schedule=_parse("schedule.tau", make_schedule, sched["T"], sched["tau"]),
        outage=OutagePolicy(enabled=merged["outage"]["enabled"]),
        adaptive=adaptive,
        step=step,
    )
    plan = config.gamma_plan
    runs_rounds = plan.mode == "certified" or (plan.mode == "fixed" and plan.value > 0)
    if merged["aggregation"]["mode"] == trainer.FULL and (adaptive is not None or runs_rounds):
        # the full-participation baseline runs neither D2D rounds nor the controller
        raise ConfigError(
            "aggregation.mode",
            "'full' needs a fixed schedule with no D2D rounds "
            "(schedule.gamma mode 'none', or 'fixed' with value 0)",
        )
    return config


def _parse(path: str, factory, *args, **kwargs):
    """Build one run object; a ValueError, TypeError or OSError from it names `path`."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(path, str(exc)) from None


def _is_int(value, least: int) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _validate(cfg):
    """Checks that no run object's constructor makes: choices and integer types."""
    if cfg["dataset"]["kind"] not in ("synthetic", "csv"):
        raise ConfigError("dataset.kind", "must be 'synthetic' or 'csv'")
    if cfg["dataset"]["kind"] == "csv" and not cfg["dataset"]["path"]:
        raise ConfigError("dataset.path", "missing required field")
    if cfg["step"]["kind"] not in ("diminishing", "constant"):
        raise ConfigError("step.kind", "must be 'diminishing' or 'constant'")
    if cfg["init"]["kind"] not in ("zeros", "offset"):
        raise ConfigError("init.kind", "must be 'zeros' or 'offset'")
    if cfg["schedule"]["mode"] not in ("fixed", "adaptive"):
        raise ConfigError("schedule.mode", "must be 'fixed' or 'adaptive'")
    if not _is_int(cfg["schedule"]["T"], 1):
        raise ConfigError("schedule.T", "must be a positive integer")
    tau = cfg["schedule"]["tau"]
    if not (_is_int(tau, 1) or (isinstance(tau, list) and tau and all(_is_int(x, 1) for x in tau))):
        raise ConfigError("schedule.tau", "must be a positive integer or a non-empty list of them")
    if cfg["aggregation"]["mode"] not in (trainer.SAMPLED, trainer.FULL):
        raise ConfigError("aggregation.mode", "must be 'sampled' or 'full'")
    batch = cfg["sgd"]["batch_size"]
    if batch != "full" and not _is_int(batch, 1):
        raise ConfigError("sgd.batch_size", "must be 'full' or a positive integer")
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s, 0) for s in seeds):
        raise ConfigError("seeds", "must be a non-empty list of non-negative integers")


def build_task(config: ExperimentConfig) -> TrainTask:
    """Materialize dataset, partitions, network, and solved task constants."""
    cfg = config.raw
    ds_cfg = cfg["dataset"]
    if ds_cfg["kind"] == "synthetic":
        dataset = _parse(
            "dataset", data.gen_synthetic,
            ds_cfg["m"], ds_cfg["n_labels"], ds_cfg["per_label"], ds_cfg["separation"], ds_cfg["seed"],
        )
    else:
        dataset = _parse("dataset.path", data.load_csv, ds_cfg["path"], has_header=ds_cfg["has_header"])
    clusters = _network(config, cfg["topology"]["seed"])
    n_devices = sum(c.size for c in clusters)
    model = _parse(
        "loss", losses.LossModel, kind=cfg["loss"]["kind"], reg=cfg["loss"]["reg"], dim=dataset.dim
    )
    flat_parts = _parse(
        "partition", data.partition, dataset, n_devices, config.partition, kind=model.kind
    )
    batch = cfg["sgd"]["batch_size"]
    smallest = min(p.n_points for p in flat_parts)
    if batch != "full" and batch > smallest:
        raise ConfigError(
            "sgd.batch_size", f"{batch} exceeds the smallest device dataset ({smallest} points)"
        )
    parts, pos = [], 0
    for spec in clusters:
        parts.append(flat_parts[pos : pos + spec.size])
        pos += spec.size
    task = trainer.make_task(
        model,
        clusters,
        parts,
        batch_size=None if batch == "full" else batch,
        eval_accuracy=cfg["eval_accuracy"],
        n_labels=dataset.n_labels,
    )
    init = cfg["init"]
    if init["kind"] == "offset":
        rng = np.random.default_rng(np.random.SeedSequence([int(init["seed"]), 0x1217]))
        direction = rng.standard_normal(model.dim)
        task.w0 = init["scale"] * direction / np.linalg.norm(direction)
    if config.adaptive is None and config.step is None:
        config.step = _parse("step", resolve_step_schedule, config, task)
    return task


def _network(config: ExperimentConfig, seed: int):
    topo = config.raw["topology"]
    try:
        return _parse(
            "topology", topology.build_network,
            topo["n_clusters"], topo["cluster_size"], topo["field_m"], config.channel,
            d_c=topo["d_c"], seed=seed, max_attempts=topo["max_attempts"],
        )
    except topology.DisconnectedGraphError as exc:
        # the placement budget and the field size are config values: no run can
        # start on a network that they cannot connect
        raise ConfigError("topology", str(exc)) from None


def resolve_step_schedule(config: ExperimentConfig, task: TrainTask) -> StepSchedule:
    """The diminishing step schedule, with 'auto' parameters from the task's curvature constants."""
    step = config.raw["step"]
    ctrl = config.raw["control"]
    gamma = step["gamma"]
    if gamma == "auto":
        gamma = ctrl["gamma_over_mu"] / task.mu
    alpha = step["alpha"]
    if alpha == "auto":
        # control.alpha_margin is the adaptive controller's head-room for its
        # re-estimated diversity; applying it here would change alpha, and so
        # every trace, of the existing fixed runs that use alpha 'auto'
        alpha = control.select_alpha(
            task.mu, task.beta, gamma, ctrl["zeta_frac"], ctrl["tau_max"], cap=ctrl["alpha_cap"]
        )
    return StepSchedule(kind="diminishing", gamma=float(gamma), alpha=float(alpha))


def _topology_refresh(config: ExperimentConfig):
    """Per-interval device re-placement, when the config asks for it."""
    if not config.raw["replace_between_intervals"]:
        return None
    return lambda k: _network(config, config.raw["topology"]["seed"] + 7919 * k)


def run_single(config: ExperimentConfig, task: TrainTask, seed: int) -> MetricsTrace:
    """One deterministic protocol run for the given seed."""
    refresh = _topology_refresh(config)
    if config.adaptive is not None:
        trace, _ = control.run_adaptive(
            task, config.adaptive, cost=config.cost, outage=config.outage, seed=seed,
            topology_refresh=refresh,
        )
    elif config.raw["aggregation"]["mode"] == trainer.FULL:
        trace = trainer.run_baseline(
            task, config.step, config.schedule.T, config.schedule.taus, outage=config.outage,
            cost=config.cost, seed=seed, topology_refresh=refresh,
        )
    else:
        trace = trainer.run_tthf(
            task, config.step, config.schedule, config.gamma_plan, outage=config.outage,
            cost=config.cost, seed=seed, topology_refresh=refresh,
        )
    from . import __version__

    trace.meta.update({
        "config_hash": config.hash(),
        "seed": seed,
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
    })
    return trace


@dataclass
class CostSummary:
    total_energy: float
    total_delay: float
    interval_terms: list
    objective_total: float


def accumulate_cost(trace: MetricsTrace, cost: CostParams, alpha: Optional[float] = None) -> CostSummary:
    """Exact energy/delay sums plus the per-interval objective decomposition."""
    total_energy = float(trace.energy.sum())
    total_delay = float(trace.delay.sum())
    terms = []
    objective = 0.0
    t_km1 = 0
    for t_k, tau_k in zip(trace.boundaries, trace.taus):
        sl = slice(t_km1, t_k)
        a, b, c = cost.interval_terms(
            float(trace.energy[sl].sum()), float(trace.delay[sl].sum()), t_km1, tau_k, alpha
        )
        terms.append({"k": len(terms) + 1, "a": a, "b": b, "c": c})
        objective += a + b + c
        t_km1 = t_k
    return CostSummary(total_energy, total_delay, terms, objective)


def objective_cost_until(trace: MetricsTrace, cost: CostParams, t_stop: int, alpha: float) -> float:
    """Objective accumulated over the intervals needed to reach timestep t_stop."""
    n_intervals = bisect.bisect_left(trace.boundaries, t_stop) + 1
    terms = accumulate_cost(trace, cost, alpha).interval_terms[:n_intervals]
    return sum(term["a"] + term["b"] + term["c"] for term in terms)


def time_to_fraction_of_peak(accuracy: np.ndarray, target: float) -> Optional[int]:
    """First trace index (0-based) reaching the accuracy target, or None."""
    hits = np.flatnonzero(np.asarray(accuracy) >= target)
    return int(hits[0]) if hits.size else None


def compare_runs(trace_a: MetricsTrace, trace_b: MetricsTrace) -> dict:
    """Per-t loss-gap deltas, first crossover, and total cost ratios."""
    if len(trace_a) != len(trace_b):
        raise ValueError(f"trace lengths differ: {len(trace_a)} vs {len(trace_b)}")
    delta = trace_a.loss_gap_sampled - trace_b.loss_gap_sampled
    below = np.flatnonzero(delta < 0)
    energy_a, energy_b = float(trace_a.energy.sum()), float(trace_b.energy.sum())
    delay_a, delay_b = float(trace_a.delay.sum()), float(trace_b.delay.sum())
    return {
        "per_t_delta": delta,
        "final_delta": float(delta[-1]),
        "first_crossover_t": int(trace_a.t[below[0]]) if below.size else None,
        "energy_ratio": energy_a / energy_b if energy_b else float("inf"),
        "delay_ratio": delay_a / delay_b if delay_b else float("inf"),
    }


def certificate_constants(
    config: ExperimentConfig, task: TrainTask, sigma2: float = 0.0
) -> bounds.Thm2Constants:
    """Sublinear-rate constants of a certified fixed-tau run.

    Uses the exact quadratic diversity constants, the longest configured
    interval, the true initial gap and the given SGD noise bound sigma2.
    """
    steps = config.step
    if steps is None:
        raise ConfigError("schedule.mode", "the rate certificate covers fixed schedules only")
    if steps.kind != "diminishing":
        raise ConfigError("step.kind", "the rate certificate needs a diminishing step schedule")
    delta, zeta = bounds.exact_diversity_quadratic(task.model, task.data)
    omega = zeta / (2.0 * task.beta)
    init_gap = task.global_loss(task.w0) - task.f_star
    try:
        return bounds.thm2_constants(
            steps.gamma, steps.alpha, task.mu, task.beta, max(config.schedule.taus), sigma2,
            config.gamma_plan.phi, delta, init_gap, omega,
        )
    except bounds.DiversityError as exc:
        # an 'auto' alpha is chosen for control.zeta_frac as omega, not for the data's omega
        raise ConfigError(
            "step.alpha",
            f"{exc} at alpha={steps.alpha:.4g}: set control.zeta_frac to at least {omega:.4g} "
            "for an 'auto' alpha, or set a larger step.alpha",
        ) from exc


def _bound_check(config, task, traces, mean_gap):
    """Sublinear-envelope pass/fail when a certificate applies, else None.

    Only meaningful for quadratic tasks (exact diversity constants exist), a
    diminishing step schedule, and full-batch gradients (sigma = 0 is then an
    exact noise bound).
    """
    if (
        task.model.kind != losses.LINEAR_REGRESSION
        or config.adaptive is not None
        or config.step.kind != "diminishing"
        or task.batch_size is not None
        or config.gamma_plan.mode != "certified"
    ):
        return None
    try:
        constants = certificate_constants(config, task)
    except ValueError:
        return None
    holds, _, _ = bounds.envelope_check(mean_gap, constants.nu, constants.alpha, t0=int(traces[0].t[0]))
    return holds


def run_experiment(config_source, output_dir: Optional[str] = None, workers: int = 1) -> dict:
    """Run the seeds in turn, then write per-seed traces and the summary JSON; returns the summary.

    `workers` is accepted and ignored: the outputs do not depend on it.
    """
    config = load_config(config_source)
    task = build_task(config)
    seeds = config.raw["seeds"]
    traces = [run_single(config, task, seed) for seed in seeds]
    horizons = {seed: len(trace) for seed, trace in zip(seeds, traces)}
    if len(set(horizons.values())) > 1:
        raise HorizonMismatchError(horizons)
    out = Path(output_dir or config.raw["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for seed, trace in zip(seeds, traces):
        trace.to_csv(out / f"trace_seed{seed}.csv")
        if trace.control_rows:
            trace.control_to_csv(out / f"trace_seed{seed}_control.csv")

    gap_matrix = np.stack([tr.loss_gap_sampled for tr in traces])
    mean_gap = gap_matrix.mean(axis=0)
    summaries = [accumulate_cost(tr, config.cost) for tr in traces]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config.hash(),
        "seeds": seeds,
        "T": len(traces[0]),
        "mu": task.mu,
        "beta": task.beta,
        "f_star": task.f_star,
        "final_mean_gap": float(mean_gap[-1]),
        "min_mean_gap": float(mean_gap.min()),
        "total_energy_mean": float(np.mean([s.total_energy for s in summaries])),
        "total_delay_mean": float(np.mean([s.total_delay for s in summaries])),
        "bound_check": _bound_check(config, task, traces, mean_gap),
    }
    if traces[0].accuracy is not None:
        acc = np.stack([tr.accuracy for tr in traces]).mean(axis=0)
        peak = float(acc.max())
        idx = time_to_fraction_of_peak(acc, 0.75 * peak)
        summary["peak_accuracy"] = peak
        summary["t_to_75pct_peak"] = None if idx is None else int(traces[0].t[idx])
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    return summary

"""Protocol orchestration: local SGD, clustered consensus, sampled aggregation.

The engine runs the two-timescale loop with pluggable interval-length and
D2D-round providers, so fixed-parameter runs, baselines, and the adaptive
controller all share one deterministic code path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import losses
from .bounds import dispersion_sample
from .consensus import OutagePolicy, consensus_error, run_consensus
from .costs import CostParams
from .losses import DeviceData, DevicePartition, LossModel
from .schedules import GammaPlan, StepSchedule, TrainingSchedule
from .topology import ClusterSpec

SAMPLED = "sampled"
FULL = "full"

# entropy tags for the independent rng substreams of one run
_STREAM_SAMPLING = 0x5A11
_STREAM_SGD = 0x5D00
_STREAM_OUTAGE = 0x007A
_STREAM_ESTIMATE = 0xE57


def device_rngs(seed: int, n_devices: int) -> list[np.random.Generator]:
    """One deterministic substream per device, independent of iteration order."""
    return [
        np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SGD, d]))
        for d in range(n_devices)
    ]


def global_aggregate(
    models: Sequence[np.ndarray], varrho: np.ndarray, sampled: Sequence[int]
) -> np.ndarray:
    """Server model from one sampled device per cluster, size-weighted.

    The column sum adds the weighted models in cluster order, as a running sum would.
    """
    return (np.asarray(varrho)[:, None] * np.asarray(models)[sampled]).sum(axis=0)


@dataclass
class TrainTask:
    """Everything a run needs: task, network, data placement, and exact optimum."""

    model: LossModel
    clusters: list[ClusterSpec]
    parts: list[list[DevicePartition]]
    w0: np.ndarray
    w_star: np.ndarray
    f_star: float
    mu: float
    beta: float
    data: DeviceData
    batch_size: Optional[int] = None
    eval_accuracy: bool = False
    n_labels: int = 2

    def __post_init__(self):
        if len(self.clusters) != len(self.parts):
            raise ValueError("clusters and parts must align")
        for spec, cluster_parts in zip(self.clusters, self.parts):
            if spec.size != len(cluster_parts):
                raise ValueError(f"cluster {spec.index}: spec size != number of partitions")
        self.flat_parts = self.data.parts
        self.n_devices = self.data.n_devices
        self.all_labels = np.concatenate([p.labels for p in self.flat_parts])

    def global_loss(self, w: np.ndarray) -> float:
        return losses.global_loss(self.model, w, self.data)

    def accuracy(self, w: np.ndarray) -> float:
        return losses.accuracy(self.model, w, self.data.X, self.all_labels, self.n_labels)


def make_task(
    model: LossModel,
    clusters: list[ClusterSpec],
    parts: list[list[DevicePartition]],
    w0: Optional[np.ndarray] = None,
    batch_size: Optional[int] = None,
    eval_accuracy: bool = False,
    n_labels: int = 2,
) -> TrainTask:
    """Stack the device data once and resolve the exact optimum and curvature constants."""
    data = losses.DeviceData(model, parts)
    mu, beta = losses.smoothness_constants(model, data)
    w_star = losses.solve_optimum(model, data)
    # F(w*) sums the device losses, non-negative terms that do not cancel at
    # the optimum as the regression closed form's terms do
    f_star = losses.device_mean_loss(model, w_star, data)
    return TrainTask(
        model=model,
        clusters=clusters,
        parts=parts,
        w0=np.zeros(model.dim) if w0 is None else np.asarray(w0, dtype=float),
        w_star=w_star,
        f_star=f_star,
        mu=mu,
        beta=beta,
        data=data,
        batch_size=batch_size,
        eval_accuracy=eval_accuracy,
        n_labels=n_labels,
    )


@dataclass
class MetricsTrace:
    """Per-timestep protocol record plus per-aggregation control decisions."""

    t: np.ndarray
    loss_gap_sampled: np.ndarray
    loss_gap_avg: np.ndarray
    dispersion: np.ndarray
    eps_rms: np.ndarray
    gamma_total: np.ndarray
    energy: np.ndarray
    delay: np.ndarray
    gamma_by_cluster: np.ndarray
    boundaries: list[int]
    taus: list[int]
    accuracy: Optional[np.ndarray] = None
    control_rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    COLUMNS = (
        "t",
        "loss_gap_sampled",
        "loss_gap_avg",
        "dispersion",
        "eps_rms",
        "gamma_total",
        "energy_J",
        "delay_s",
    )

    def __len__(self):
        return len(self.t)

    def to_csv(self, path):
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for i in range(len(self.t)):
                row = [
                    str(int(self.t[i])),
                    repr(float(self.loss_gap_sampled[i])),
                    repr(float(self.loss_gap_avg[i])),
                    repr(float(self.dispersion[i])),
                    repr(float(self.eps_rms[i])),
                    str(int(self.gamma_total[i])),
                    repr(float(self.energy[i])),
                    repr(float(self.delay[i])),
                ]
                fh.write(",".join(row) + "\n")

    def control_to_csv(self, path):
        cols = ["k", "t_k", "tau_k", "alpha", "gamma_step", "phi", "delta_prime", "sigma2", "nu"]
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols + ["gamma_by_cluster"])
            for row in self.control_rows:
                writer.writerow(
                    [row.get(c, "") for c in cols]
                    + [";".join(str(int(g)) for g in row.get("gamma_by_cluster", []))]
                )

    @staticmethod
    def from_csv(path) -> "MetricsTrace":
        arr = {c: [] for c in MetricsTrace.COLUMNS}
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                for c in MetricsTrace.COLUMNS:
                    arr[c].append(float(rec[c]))
        return MetricsTrace(
            t=np.array(arr["t"], dtype=int),
            loss_gap_sampled=np.array(arr["loss_gap_sampled"]),
            loss_gap_avg=np.array(arr["loss_gap_avg"]),
            dispersion=np.array(arr["dispersion"]),
            eps_rms=np.array(arr["eps_rms"]),
            gamma_total=np.array(arr["gamma_total"], dtype=int),
            energy=np.array(arr["energy_J"]),
            delay=np.array(arr["delay_s"]),
            gamma_by_cluster=np.zeros((len(arr["t"]), 0), dtype=int),
            boundaries=[],
            taus=[],
        )


# round provider ---------------------------------------------------------------


def provider_from_plan(plan: GammaPlan):
    """The D2D rounds of a fixed-parameter run, one int per cluster for each step.

    Certified plans meet the contraction certificate's eta_t*phi error target;
    fixed plans run plan.value rounds at every plan.cadence-th local step, and
    "none" plans run none.
    """
    if plan.mode == "certified":
        from .consensus import divergence_exact
        from .control import round_rule

        def certified(local_step, clusters, blocks, eta_next):
            return round_rule(clusters, blocks, divergence_exact, eta_next, plan.phi, plan.max_rounds)[1]

        return certified
    # a "none" plan's cadence is not validated, so it is not read
    rounds, cadence = (plan.value, plan.cadence) if plan.mode == "fixed" else (0, 1)

    def fixed(local_step, clusters, blocks, eta_next):
        return [rounds if local_step % cadence == 0 else 0] * len(clusters)

    return fixed


# engine ----------------------------------------------------------------------


def run_protocol(
    task: TrainTask,
    steps: StepSchedule,
    T: int,
    tau_provider: Callable[[int], int],
    gamma_provider: Callable,
    aggregation: str = SAMPLED,
    outage: Optional[OutagePolicy] = None,
    cost: Optional[CostParams] = None,
    seed: int = 0,
    on_aggregate: Optional[Callable] = None,
    radius_ref: Optional[np.ndarray] = None,
    topology_refresh: Optional[Callable] = None,
) -> MetricsTrace:
    """Run the full two-timescale protocol for T timesteps.

    tau_provider(k) -> length of interval k (1-based k).
    gamma_provider(local_step, clusters, blocks, eta_t) -> D2D rounds for this
    step, one int per cluster in `clusters` order. blocks holds one
    (member cluster indices, intermediate models of shape (members, size, d))
    pair per cluster size, so a provider can batch its per-cluster rule.
    on_aggregate(t_k, w_hat, W, estimate_rng, clusters) -> optional dict merged into
    the control row (the adaptive controller hooks its re-estimation logic here);
    clusters are the specs of interval k+1, already refreshed.
    radius_ref, when given, tracks the largest device-model distance from that
    reference over every gradient evaluation point (meta["max_radius"]).
    topology_refresh(k) -> new cluster specs for interval k, called when interval
    k-1 ends (positions stay static within each interval either way).
    """
    if aggregation not in (SAMPLED, FULL):
        raise ValueError(f"unknown aggregation mode {aggregation!r}")
    cost = cost or CostParams()
    clusters = list(task.clusters)
    n_clusters = len(clusters)
    n_dev = task.n_devices
    dim = task.model.dim
    groups = task.data.cluster_groups
    # refreshes keep every cluster's size
    sizes = np.array([spec.size for spec in clusters])
    upload_scale = 1.0 if aggregation == SAMPLED else n_dev / n_clusters

    rng_sampling = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SAMPLING]))
    rng_estimate = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_ESTIMATE]))
    outage_rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, _STREAM_OUTAGE, c]))
        for c in range(n_clusters)
    ]
    sampler = None
    if task.batch_size is not None:
        sampler = losses.BatchSampler(task.data.n_points, task.batch_size, device_rngs(seed, n_dev))

    W = np.tile(task.w0, (n_dev, 1)).astype(float)
    varrho = task.data.varrho
    max_radius = 0.0
    if radius_ref is not None:
        max_radius = float(np.linalg.norm(W - radius_ref, axis=1).max())

    cluster_starts = np.array([sl.start for sl in task.data.cluster_slices])

    def sample_indices():
        # one draw per cluster, in cluster order, as separate scalar calls would give
        return (cluster_starts + rng_sampling.integers(0, sizes)).tolist()

    sampled = sample_indices()

    gap_s, gap_a, disp, eps = np.empty((4, T))
    gamma_log = np.zeros((T, n_clusters), dtype=int)
    acc_log = np.empty(T) if task.eval_accuracy else None
    control_rows: list[dict] = []
    boundaries: list[int] = []
    taus: list[int] = []

    def next_interval(k, t_km1):
        tau = int(tau_provider(k))
        if tau < 1:
            raise ValueError("tau_provider returned an interval shorter than 1")
        return tau, min(t_km1 + tau, T)

    k = 1
    t_km1 = 0
    tau_k, t_k = next_interval(k, t_km1)

    def outage_policies():
        if outage is None or not outage.enabled:
            return [None] * n_clusters
        return [OutagePolicy(enabled=True, link_outage=spec.link_outage) for spec in clusters]

    per_cluster_outage = outage_policies()

    for t in range(1, T + 1):
        eta_prev = steps.eta(t - 1)
        eta_next = steps.eta(t)

        # local SGD step for every device
        if sampler is None:
            grads = losses.grad_full(task.model, W, task.data)
        else:
            grads = losses.grad_sgd(task.model, W, task.data, task.batch_size, sampler)
        W_tilde = W - eta_prev * grads
        if np.isnan(W_tilde).any():
            bad = int(np.flatnonzero(np.isnan(W_tilde).any(axis=1))[0])
            raise RuntimeError(f"NaN model parameters at t={t} (device {bad}); aborting run")

        # D2D consensus: the round rule, error and means run once per size
        # group on (members, size, d) blocks; only the gossip is per cluster
        local_step = t - t_km1
        blocks = [
            (members, W_tilde[dev_rows].reshape(len(members), size, dim))
            for members, dev_rows, size in groups
        ]
        gamma_log[t - 1] = gamma_provider(local_step, clusters, blocks, eta_next)
        W_new = np.empty_like(W_tilde)
        gammas = gamma_log[t - 1].tolist()
        for spec, sl, gamma, policy, rng in zip(
            clusters, task.data.cluster_slices, gammas, per_cluster_outage, outage_rngs
        ):
            W_new[sl] = run_consensus(W_tilde[sl], spec.V, gamma, outage=policy, rng=rng)
        W = W_new
        cluster_means = np.empty((n_clusters, dim))
        mixed_means = np.empty((n_clusters, dim))
        eps2_by_cluster = np.empty(n_clusters)
        for (members, block), (_, dev_rows, size) in zip(blocks, groups):
            mixed = W[dev_rows].reshape(len(members), size, dim)
            errs, _ = consensus_error(mixed, block)
            eps2_by_cluster[members] = np.mean(errs**2, axis=-1)
            cluster_means[members] = block.mean(axis=1)
            if aggregation == FULL:
                mixed_means[members] = mixed.mean(axis=1)

        # metrics for this timestep; the server-equivalent model is the sampled
        # combination for TT-HF and the full weighted average for baselines
        w_bar = varrho @ cluster_means
        if aggregation == SAMPLED:
            w_hat_virtual = global_aggregate(W, varrho, sampled)
        else:
            w_hat_virtual = varrho @ mixed_means
        gap_s[t - 1] = task.global_loss(w_hat_virtual) - task.f_star
        gap_a[t - 1] = task.global_loss(w_bar) - task.f_star
        disp[t - 1] = dispersion_sample(cluster_means, varrho)
        eps[t - 1] = np.sqrt(varrho @ eps2_by_cluster)
        if acc_log is not None:
            acc_log[t - 1] = task.accuracy(w_hat_virtual)

        if t == t_k:
            w_hat = w_hat_virtual
            row = {
                "k": k,
                "t_k": t,
                "tau_k": tau_k,
                "sampled": list(sampled),
                "gamma_by_cluster": gamma_log[t_km1:t].sum(axis=0).tolist(),
            }
            if t < T and topology_refresh is not None:
                fresh = topology_refresh(k + 1)
                if fresh is not None:
                    if [s.size for s in fresh] != [s.size for s in clusters]:
                        raise ValueError("topology refresh must preserve cluster sizes")
                    clusters = list(fresh)
                    per_cluster_outage = outage_policies()
            if on_aggregate is not None:
                extra = on_aggregate(t, w_hat, W, rng_estimate, clusters)
                if extra:
                    row.update(extra)
            control_rows.append(row)
            boundaries.append(t)
            taus.append(tau_k)
            W = np.tile(w_hat, (n_dev, 1))
            sampled = sample_indices()
            t_km1 = t
            if t < T:
                k += 1
                tau_k, t_k = next_interval(k, t_km1)

        if radius_ref is not None:
            max_radius = max(max_radius, float(np.linalg.norm(W - radius_ref, axis=1).max()))

    # per-step costs: D2D rounds, plus the upload charge at each aggregation
    gamma_total = gamma_log.sum(axis=1)
    energy = (gamma_log * sizes).sum(axis=1) * cost.e_d2d
    delay = gamma_total * cost.delta_d2d
    ends = np.array(boundaries) - 1
    energy[ends] += cost.e_glob * upload_scale
    delay[ends] += cost.delta_glob * upload_scale
    return MetricsTrace(
        t=np.arange(1, T + 1),
        loss_gap_sampled=gap_s,
        loss_gap_avg=gap_a,
        dispersion=disp,
        eps_rms=eps,
        gamma_total=gamma_total,
        energy=energy,
        delay=delay,
        gamma_by_cluster=gamma_log,
        boundaries=boundaries,
        taus=taus,
        accuracy=acc_log,
        control_rows=control_rows,
        meta={
            "seed": seed,
            "aggregation": aggregation,
            **({"max_radius": max_radius} if radius_ref is not None else {}),
        },
    )


def _interval_provider(taus: Sequence[int]):
    """Interval k lasts taus[k-1]; past the end of the list the last length repeats."""
    taus = list(taus)
    return lambda k: taus[min(k, len(taus)) - 1]


def run_tthf(
    task: TrainTask,
    steps: StepSchedule,
    schedule: TrainingSchedule,
    gamma_plan: GammaPlan,
    outage: Optional[OutagePolicy] = None,
    cost: Optional[CostParams] = None,
    seed: int = 0,
    radius_ref=None,
    topology_refresh=None,
) -> MetricsTrace:
    """TT-HF with set control parameters: fixed interval plan, fixed/certified rounds."""
    return run_protocol(
        task,
        steps,
        schedule.T,
        _interval_provider(schedule.taus),
        provider_from_plan(gamma_plan),
        aggregation=SAMPLED,
        outage=outage,
        cost=cost,
        seed=seed,
        radius_ref=radius_ref,
        topology_refresh=topology_refresh,
    )


def run_baseline(
    task: TrainTask,
    steps: StepSchedule,
    T: int,
    tau: Union[int, Sequence[int]],
    outage: Optional[OutagePolicy] = None,
    cost: Optional[CostParams] = None,
    seed: int = 0,
    topology_refresh=None,
) -> MetricsTrace:
    """Conventional federated averaging: no D2D rounds, full device participation.

    tau is one interval length, or the lengths in order (a TrainingSchedule's taus).
    """
    return run_protocol(
        task,
        steps,
        T,
        _interval_provider(tau if isinstance(tau, Sequence) else [tau]),
        provider_from_plan(GammaPlan()),
        aggregation=FULL,
        outage=outage,
        cost=cost,
        seed=seed,
        topology_refresh=topology_refresh,
    )

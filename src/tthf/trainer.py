"""Protocol orchestration: local SGD, clustered consensus, sampled aggregation.

The engine runs the two-timescale loop with pluggable interval-length and
D2D-round providers, so fixed-parameter runs, baselines, and the adaptive
controller all share one deterministic code path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import losses
from .bounds import dispersion_sample
from .consensus import ClusterGossip, OutageStream, consensus_error, run_consensus
from .costs import CostParams
from .losses import DeviceData, DevicePartition, LossModel
from .schedules import GammaPlan, StepSchedule, TrainingSchedule, check_integer
from .seeding import generators
from .topology import ClusterSpec

SAMPLED = "sampled"
FULL = "full"

# steps whose metric inputs run_protocol buffers before it evaluates them in one call
METRIC_BLOCK = 16

# entropy tags for the independent rng substreams of one run
_STREAM_SAMPLING = 0x5A11
_STREAM_SGD = 0x5D00
_STREAM_OUTAGE = 0x007A


def _device_rows(seed: int, n_devices: int) -> list[tuple]:
    return [(seed, _STREAM_SGD, d) for d in range(n_devices)]


def global_aggregate(
    models: Sequence[np.ndarray], varrho: np.ndarray, sampled: Sequence[int]
) -> np.ndarray:
    """Server model from one sampled device per cluster, size-weighted.

    The column sum adds the weighted models in cluster order, as a running sum would.
    """
    return (np.asarray(varrho)[:, None] * np.asarray(models)[sampled]).sum(axis=0)


def block_metrics(W_tilde, W, groups, varrho, sampled=None):
    """(cluster means, average models, server models, eps_rms) of n steps from their
    (n, n_devices, d) intermediate and post-consensus models, each step's bit for bit.

    sampled (n, clusters) holds each step's sampled devices; None makes the server
    model the average model. A size group's rows are a view or a `take`, so its
    (n, members, size, d) blocks lie in C order as one step's rows do: numpy's
    reductions add in an order that follows the memory layout, and a fancy index
    would put the steps innermost. Each group's cluster means are taken once, by
    mean over the size axis in that per-step order, and passed to consensus_error
    as one-row w_tilde, whose mean is that row; it returns the clusters' mean
    squares. eps_rms takes one dot per step: a stacked matmul differs.
    """
    n, _, dim = W_tilde.shape
    means, eps2 = np.empty((n, len(varrho), dim)), np.empty((n, len(varrho)))
    for members, dev_rows, size in groups:
        if isinstance(dev_rows, slice):
            block, post = W_tilde[:, dev_rows], W[:, dev_rows]
        else:
            block, post = W_tilde.take(dev_rows, axis=1), W.take(dev_rows, axis=1)
        shape = (n, len(members), size, dim)
        block, post = block.reshape(shape), post.reshape(shape)
        group_means = means[:, members] = block.mean(axis=-2)
        eps2[:, members] = consensus_error(post, group_means[..., None, :])[1]
    bar = varrho @ means
    hat = bar if sampled is None else (varrho[:, None] * W[np.arange(n)[:, None], sampled]).sum(axis=1)
    return means, bar, hat, np.sqrt([np.dot(varrho, row) for row in eps2])


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

    def __post_init__(self):
        if len(self.clusters) != len(self.parts):
            raise ValueError("clusters and parts must align")
        for spec, cluster_parts in zip(self.clusters, self.parts):
            if spec.size != len(cluster_parts):
                raise ValueError(f"cluster {spec.index}: spec size != number of partitions")
        self.flat_parts = self.data.parts
        self.n_devices = self.data.n_devices

    def global_loss(self, w: np.ndarray):
        """F(w) for one model (a float), or one value per model stacked on leading axes."""
        return losses.global_loss(self.model, w, self.data)

    def accuracy(self, w: np.ndarray):
        """Accuracy of one model (a float), or one value per model stacked on leading axes."""
        return losses.accuracy(self.model, w, self.data)


def make_task(
    model: LossModel,
    clusters: list[ClusterSpec],
    parts: list[list[DevicePartition]],
    batch_size: Optional[int] = None,
    eval_accuracy: bool = False,
    n_labels: Optional[int] = None,
) -> TrainTask:
    """Stack the device data once and resolve the exact optimum and curvature constants.

    The task starts from the zero model; another start is set on `task.w0` after the build.
    """
    data = losses.DeviceData(model, parts)
    if n_labels is not None and n_labels < data.n_labels:
        raise ValueError(f"n_labels={n_labels} does not cover the data's {data.n_labels} labels")
    mu, beta = losses.smoothness_constants(model, data)
    w_star = losses.solve_optimum(model, data)
    # F(w*) sums the device losses, non-negative terms that do not cancel at
    # the optimum as the regression closed form's terms do
    f_star = losses.device_mean_loss(model, w_star, data)
    return TrainTask(
        model=model,
        clusters=clusters,
        parts=parts,
        w0=np.zeros(model.dim),
        w_star=w_star,
        f_star=f_star,
        mu=mu,
        beta=beta,
        data=data,
        batch_size=batch_size,
        eval_accuracy=eval_accuracy,
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
    accuracy: Optional[np.ndarray] = None
    control_rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    # the trace CSV's (column, attribute) pairs; t and gamma_total read back as ints
    CSV_FIELDS = (
        ("t", "t"),
        ("loss_gap_sampled", "loss_gap_sampled"),
        ("loss_gap_avg", "loss_gap_avg"),
        ("dispersion", "dispersion"),
        ("eps_rms", "eps_rms"),
        ("gamma_total", "gamma_total"),
        ("energy_J", "energy"),
        ("delay_s", "delay"),
    )
    COLUMNS = tuple(column for column, _ in CSV_FIELDS)

    def __len__(self):
        return len(self.t)

    @property
    def boundaries(self) -> list[int]:
        """The aggregation steps t_k, one per control row."""
        return [row["t_k"] for row in self.control_rows]

    @property
    def taus(self) -> list[int]:
        """The number of steps each interval ran, one per control row."""
        return [row["tau_k"] for row in self.control_rows]

    def to_csv(self, path):
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.COLUMNS)
            writer.writerows(zip(*(getattr(self, attr).tolist() for _, attr in self.CSV_FIELDS)))

    def control_to_csv(self, path):
        cols = ["k", "t_k", "tau_k", "alpha", "gamma_step", "phi", "delta_prime", "sigma2", "nu"]
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
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
            if missing := [c for c in MetricsTrace.COLUMNS if c not in (reader.fieldnames or ())]:
                raise ValueError(f"no column {missing[0]!r}")
            for rec in reader:
                for c in MetricsTrace.COLUMNS:
                    arr[c].append(float(rec[c]))
        if not arr["t"]:
            raise ValueError("no rows")
        return MetricsTrace(
            **{
                attr: np.array(arr[column], dtype=int if attr in ("t", "gamma_total") else float)
                for column, attr in MetricsTrace.CSV_FIELDS
            },
            gamma_by_cluster=np.zeros((len(arr["t"]), 0), dtype=int),
        )


# D2D epoch and round provider -------------------------------------------------


class LambdaPowers:
    """One topology's lambdas (`lams`) and their read-only table of lam_c ** k
    (`table`), which control.gamma_rounds takes in lambda_c's place, as
    run_consensus takes a ClusterGossip in V's. The table holds Python's float
    ** (see control._TABLE_WIDTH); the rule's first call builds it, so a run
    without the rule never does, and the search's doubling widens it.
    """

    def __init__(self, lams: np.ndarray):
        self.lams, self.table = lams, np.empty((0, 0))

    def widen(self, width: int) -> np.ndarray:
        """The table, rebuilt first at this width if it is narrower."""
        if self.table.shape[1] < width:
            valid = (self.lams >= 0.0) & (self.lams < 1.0)
            if not valid.all():
                raise ValueError(f"lambda_c={self.lams[~valid][0]} must lie in [0, 1)")
            powers = [lam**k for lam in self.lams.tolist() for k in range(width)]
            self.table = np.reshape(powers, (len(self.lams), width))
            self.table.flags.writeable = False
        return self.table


class D2DEpoch(NamedTuple):
    """One topology's D2D constants in cluster order: the sizes as floats, the
    lambdas' LambdaPowers, and each cluster's ClusterGossip, which run_consensus
    takes in V's place.

    The epoch snapshots each V, and in a lossy run each link matrix, when it is
    built: the gossip holds a read-only copy of V with its powers or, lossy, its
    links' endpoints and loss probabilities, so a spec changed in place
    afterwards does not reach the run. The round rule reads the lambdas' powers
    from the epoch's one table, which it widens in place.
    """

    sizes: np.ndarray
    lambda_powers: LambdaPowers
    gossip: list[ClusterGossip]


def d2d_epoch(clusters: Sequence[ClusterSpec], lossy=False) -> D2DEpoch:
    """The D2DEpoch of these specs."""
    sizes = np.array([spec.size for spec in clusters], dtype=float)
    gossip = [ClusterGossip(spec.V, spec.link_outage if lossy else None) for spec in clusters]
    lams = np.array([spec.lambda_c for spec in clusters], dtype=float)
    return D2DEpoch(sizes, LambdaPowers(lams), gossip)


class D2DEpochs:
    """A run's D2D topology: `epoch(k)` is interval k's D2DEpoch, derived the first
    time any run asks for it and then kept, so the runs that share this object (the
    seeds of one experiment) share each interval's network, V's powers, the lossy
    links and the lambda power table. Interval 1 runs on clusters; refresh(k) -> new
    specs of the same cluster sizes for interval k, or None to keep interval k-1's,
    is called once per k, in order. lossy loses each link of a D2D round with its
    cluster's link_outage probability.
    """

    def __init__(self, clusters: Sequence[ClusterSpec], lossy=False, refresh: Optional[Callable] = None):
        self.lossy = lossy
        self._clusters, self._refresh = clusters, refresh
        self._epochs: list[D2DEpoch] = []

    def epoch(self, k: int) -> D2DEpoch:
        """Interval k's D2DEpoch (1-based k)."""
        check_integer("k", k, 1)
        if not self._epochs:
            self._epochs.append(d2d_epoch(self._clusters, self.lossy))
        if self._refresh is None:
            return self._epochs[0]
        while len(self._epochs) < k:
            fresh, previous = self._refresh(len(self._epochs) + 1), self._epochs[-1]
            if fresh is not None and not np.array_equal([spec.size for spec in fresh], previous.sizes):
                raise ValueError("topology refresh must preserve cluster sizes")
            self._epochs.append(previous if fresh is None else d2d_epoch(fresh, self.lossy))
        return self._epochs[k - 1]


def provider_from_plan(plan: GammaPlan):
    """The D2D rounds of a fixed-parameter run, one int per cluster for each step.

    Certified plans meet the contraction certificate's eta_t*phi error target;
    fixed plans run plan.value rounds at every plan.cadence-th local step.
    """
    if plan.mode == "certified":
        # imported here: control imports trainer, and perfbench patches consensus.divergence_exact
        from .consensus import divergence_exact
        from .control import round_rule

        def certified(local_step, epoch, blocks, eta_next):
            return round_rule(epoch, blocks, divergence_exact, eta_next, plan.phi, plan.max_rounds)[1]

        return certified

    def fixed(local_step, epoch, blocks, eta_next):
        return [plan.value if local_step % plan.cadence == 0 else 0] * len(epoch.sizes)

    return fixed


# engine ----------------------------------------------------------------------


def local_step(task: TrainTask, W: np.ndarray, eta: float, sampler, out: np.ndarray, t: int) -> np.ndarray:
    """Step t's intermediate models W - eta * grad, written into out and returned;
    sampler is the run's BatchSampler, None for full gradients. A NaN model aborts
    the run, naming t and the first bad device."""
    if sampler is None:
        grads = losses.grad_full(task.model, W, task.data)
    else:
        grads = losses.grad_sgd(task.model, W, task.data, task.batch_size, sampler)
    W_tilde = np.subtract(W, eta * grads, out=out)
    if np.isnan(W_tilde).any():
        bad = int(np.flatnonzero(np.isnan(W_tilde).any(axis=1))[0])
        raise RuntimeError(f"NaN model parameters at t={t} (device {bad}); aborting run")
    return W_tilde


def d2d_step(epoch: D2DEpoch, gammas: Sequence[int], streams: Sequence, views: Sequence) -> None:
    """gammas[c] rounds of cluster c's gossip with streams[c] (None: lossless), from
    views[c][0], its intermediate models, into views[c][1]; one run_consensus call each."""
    for (w_c, out_c), gamma, gossip, stream in zip(views, gammas, epoch.gossip, streams):
        run_consensus(w_c, gossip, gamma, rng=stream, out=out_c)


def metric_block(task: TrainTask, W_tilde: np.ndarray, W: np.ndarray, sampled, out: np.ndarray) -> None:
    """block_metrics' inputs of n steps -> out's (n,) rows: the sampled and average
    gaps, dispersion, eps_rms and, when the task asks, accuracy. Stacked evaluation
    gives each model's values bit for bit."""
    means, bar, hat, out[3] = block_metrics(W_tilde, W, task.data.cluster_groups, task.data.varrho, sampled)
    out[0] = task.global_loss(hat) - task.f_star
    out[1] = task.global_loss(bar) - task.f_star
    out[2] = dispersion_sample(means, task.data.varrho)
    if task.eval_accuracy:
        out[4] = task.accuracy(hat)


def run_protocol(
    task: TrainTask,
    steps: StepSchedule,
    T: int,
    tau_provider: Callable[[int], int],
    gamma_provider: Callable,
    aggregation: str = SAMPLED,
    epochs: Optional[D2DEpochs] = None,
    cost: Optional[CostParams] = None,
    seed: int = 0,
    on_aggregate: Optional[Callable] = None,
    radius_ref: Optional[np.ndarray] = None,
) -> MetricsTrace:
    """Run the full two-timescale protocol for T timesteps.

    tau_provider(k) -> planned length of interval k (1-based k); the horizon
    cuts the last interval short, and each interval is recorded with the
    number of steps it ran.
    gamma_provider(local_step, epoch, blocks, eta_t) -> D2D rounds for this
    step, one int per cluster in cluster order; epoch is the current D2DEpoch.
    blocks holds one (member cluster indices as an int array, (members, size, d)
    intermediate models) pair per cluster size; a provider batches its rule over
    them and copies what it keeps, as later steps reuse their buffer rows.
    A T or interval length that is no integer >= 1, or rounds that are not one
    integer >= 0 per cluster, raise a ValueError before the run, interval or step.
    on_aggregate(t_k, tau_k, w_hat, W, epoch) -> optional dict merged into
    the control row (the adaptive controller hooks its re-estimation logic
    here); epoch is that of interval k+1, already refreshed.
    epochs is the run's D2DEpochs, by default task.clusters' lossless and static
    ones; the run asks for interval k+1's epoch when interval k ends before T.
    radius_ref, when given, tracks the largest device-model distance from that
    reference over every gradient evaluation point (meta["max_radius"]).
    aggregation FULL is the full-participation baseline, whose gamma_provider
    runs no rounds; its server model at each step is the average model.

    A step runs three layers, called through this module's globals: `local_step`
    (models -> intermediate models, by losses.grad_full or grad_sgd), `d2d_step`
    (-> post-consensus models, by run_consensus) and, every METRIC_BLOCK steps
    and at T, `metric_block` (the buffered models -> the block's trace columns,
    by consensus_error, TrainTask.global_loss, dispersion_sample and
    TrainTask.accuracy). perfbench patches each call named here.
    """
    if aggregation not in (SAMPLED, FULL):
        raise ValueError(f"unknown aggregation mode {aggregation!r}")
    check_integer("T", T, 1)
    cost = cost or CostParams()
    epochs = epochs or D2DEpochs(task.clusters)
    lossy, epoch = epochs.lossy, epochs.epoch(1)
    n_clusters = len(epoch.sizes)
    n_dev = task.n_devices
    dim = task.model.dim
    groups = task.data.cluster_groups
    starts, stops = np.array([(sl.start, sl.stop) for sl in task.data.cluster_slices]).T
    upload_scale = 1.0 if aggregation == SAMPLED else n_dev / n_clusters

    # the run's generators in one seeding pass: the aggregation sampling, each
    # cluster's link losses (a lossy run) and each device's SGD sampling (a mini-batch run)
    outage_rows = [(seed, _STREAM_OUTAGE, c) for c in range(n_clusters)] if lossy else []
    sgd_rows = _device_rows(seed, n_dev) if task.batch_size is not None else []
    rng_sampling, *rngs = generators([(seed, _STREAM_SAMPLING), *outage_rows, *sgd_rows])
    # each cluster's link losses, prefetched in blocks that run ahead of the steps
    # and go with the run; a lossless run draws none
    outage_streams = [OutageStream(rng) for rng in rngs[: len(outage_rows)]] if lossy else [None] * n_clusters
    sampler = losses.BatchSampler(task.data.n_points, task.batch_size, rngs[len(outage_rows) :]) if sgd_rows else None

    W = np.tile(task.w0, (n_dev, 1)).astype(float)
    varrho = task.data.varrho
    max_radius = 0.0

    # the trace columns: sampled and average gaps, dispersion, eps_rms[, accuracy]
    columns = np.empty((4 + task.eval_accuracy, T))
    gamma_log = np.zeros((T, n_clusters), dtype=int)
    tilde_buf, post_buf = np.empty((2, METRIC_BLOCK, n_dev, dim))
    sampled_buf = np.empty((METRIC_BLOCK, n_clusters), dtype=int)
    # each buffer row's per-cluster views, made once: a step's gossip reads its
    # clusters' intermediate rows and writes their post-consensus rows in place
    cluster_views = [
        [(tilde_buf[r, sl], post_buf[r, sl]) for sl in task.data.cluster_slices]
        for r in range(METRIC_BLOCK)
    ]

    control_rows: list[dict] = []
    t_k = 0
    while t_k < T:
        k = len(control_rows) + 1
        tau = tau_provider(k)
        check_integer(f"tau_provider({k})", tau, 1)
        t_km1, t_k = t_k, min(t_k + tau, T)
        # one draw per cluster, in cluster order, as separate scalar calls would give
        sampled = (starts + rng_sampling.integers(0, stops - starts)).tolist()

        for t in range(t_km1 + 1, t_k + 1):
            if radius_ref is not None:
                max_radius = max(max_radius, float(np.linalg.norm(W - radius_ref, axis=1).max()))
            row = (t - 1) % METRIC_BLOCK
            W_tilde = local_step(task, W, steps.eta(t - 1), sampler, tilde_buf[row], t)
            # the round rule runs once per size group on (members, size, d) blocks
            blocks = [
                (members, W_tilde[dev_rows].reshape(len(members), size, dim))
                for members, dev_rows, size in groups
            ]
            rounds = np.asarray(gamma_provider(t - t_km1, epoch, blocks, steps.eta(t)))
            gammas = rounds.tolist()
            if rounds.dtype.kind not in "iu" or rounds.shape != (n_clusters,) or min(gammas) < 0:
                raise ValueError(
                    f"gamma_provider's rounds at t={t} must be one integer >= 0 per cluster, got {gammas!r}"
                )
            gamma_log[t - 1] = rounds
            d2d_step(epoch, gammas, outage_streams, cluster_views[row])
            W = post_buf[row]
            sampled_buf[row] = sampled
            if row == METRIC_BLOCK - 1 or t == T:
                rows = sampled_buf[: row + 1] if aggregation == SAMPLED else None
                metric_block(task, tilde_buf[: row + 1], post_buf[: row + 1], rows, columns[:, t - row - 1 : t])

        # global aggregation at t_k; a baseline's server model is its block's average model
        w_hat = (global_aggregate(W, varrho, sampled) if aggregation == SAMPLED
                 else block_metrics(tilde_buf[row, None], W[None], groups, varrho)[1][0])
        record = {
            "k": k,
            "t_k": t_k,
            "tau_k": t_k - t_km1,
            "sampled": sampled,
            "gamma_by_cluster": gamma_log[t_km1:t_k].sum(axis=0).tolist(),
        }
        if t_k < T:
            epoch = epochs.epoch(k + 1)
        if on_aggregate is not None:
            extra = on_aggregate(t_k, t_k - t_km1, w_hat, W, epoch)
            if extra:
                record.update(extra)
        control_rows.append(record)
        W = np.tile(w_hat, (n_dev, 1))

    if radius_ref is not None:
        max_radius = max(max_radius, float(np.linalg.norm(W - radius_ref, axis=1).max()))

    # per-step costs: D2D rounds, plus the upload charge at each aggregation
    gamma_total = gamma_log.sum(axis=1)
    energy = (gamma_log * epoch.sizes).sum(axis=1) * cost.e_d2d
    delay = gamma_total * cost.delta_d2d
    ends = [record["t_k"] - 1 for record in control_rows]
    energy[ends] += cost.e_glob * upload_scale
    delay[ends] += cost.delta_glob * upload_scale
    return MetricsTrace(
        t=np.arange(1, T + 1),
        loss_gap_sampled=columns[0],
        loss_gap_avg=columns[1],
        dispersion=columns[2],
        eps_rms=columns[3],
        gamma_total=gamma_total,
        energy=energy,
        delay=delay,
        gamma_by_cluster=gamma_log,
        accuracy=columns[4] if task.eval_accuracy else None,
        control_rows=control_rows,
        meta={"max_radius": max_radius} if radius_ref is not None else {},
    )


def run_tthf(
    task: TrainTask,
    steps: StepSchedule,
    schedule: TrainingSchedule,
    gamma_plan: GammaPlan,
    epochs: Optional[D2DEpochs] = None,
    cost: Optional[CostParams] = None,
    seed: int = 0,
    radius_ref=None,
) -> MetricsTrace:
    """TT-HF with set control parameters: fixed interval plan, fixed/certified rounds.

    epochs is run_protocol's D2DEpochs, by default task.clusters' lossless and static ones.
    """
    return run_protocol(
        task,
        steps,
        schedule.T,
        lambda k: schedule.taus[k - 1],
        provider_from_plan(gamma_plan),
        aggregation=SAMPLED,
        epochs=epochs,
        cost=cost,
        seed=seed,
        radius_ref=radius_ref,
    )


def run_baseline(
    task: TrainTask,
    steps: StepSchedule,
    T: int,
    tau: Union[int, Sequence[int]],
    cost: Optional[CostParams] = None,
    seed: int = 0,
) -> MetricsTrace:
    """Conventional federated averaging: no D2D rounds, full device participation.

    tau is one interval length, repeated up to T, or the lengths in order,
    which must cover T (a TrainingSchedule's taus). With no rounds the cluster
    links are never read, so a baseline takes no topology refresh and no lossy links.
    """
    make_schedule = TrainingSchedule if isinstance(tau, Sequence) else TrainingSchedule.uniform
    taus = make_schedule(T, tau).taus
    return run_protocol(
        task,
        steps,
        T,
        lambda k: taus[k - 1],
        provider_from_plan(GammaPlan()),
        aggregation=FULL,
        cost=cost,
        seed=seed,
    )

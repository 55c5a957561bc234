"""Protocol loop semantics: SGD steps, aggregation, broadcast resets, determinism."""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tthf import consensus, control, data, experiment, losses, seeding, topology, trainer
from tthf.bounds import dispersion_sample
from tthf.consensus import consensus_error, divergence_exact
from tthf.costs import CostParams
from tthf.losses import LINEAR_REGRESSION, SQUARED_HINGE_SVM, DevicePartition, LossModel
from tthf.schedules import GammaPlan, StepSchedule, TrainingSchedule
from tthf.topology import ClusterSpec

from conftest import (
    accuracy_oracle,
    build_cluster,
    build_small_task,
    effective_matrix,
    local_grad,
    local_loss,
    local_sgd,
    metropolis_matrix,
    one_device,
    random_connected_adjacency,
    scalar_gamma_rounds,
)


def singleton_cluster(index, part):
    return ClusterSpec(
        index=index,
        positions=np.zeros((1, 2)),
        adjacency=np.zeros((1, 1), dtype=bool),
        V=np.ones((1, 1)),
        lambda_c=0.0,
        link_outage=np.zeros((1, 1)),
    )


def one_step(task, eta):
    """The local iterates W - eta * grads of a run's first step, from the batched gradient call."""
    W = np.tile(task.w0, (task.n_devices, 1))
    if task.batch_size is None:
        grads = losses.grad_full(task.model, W, task.data)
    else:
        sampler = losses.BatchSampler(
            task.data.n_points, task.batch_size, seeding.generators(trainer._device_rows(0, task.n_devices))
        )
        grads = losses.grad_sgd(task.model, W, task.data, task.batch_size, sampler)
    return W - eta * grads


class TestLocalSgdStep:
    def test_zero_step_is_identity(self):
        task = build_small_task()
        task.w0 = np.random.default_rng(0).standard_normal(task.model.dim)
        np.testing.assert_array_equal(one_step(task, 0.0), np.tile(task.w0, (task.n_devices, 1)))

    def test_descent_under_small_step(self):
        task = build_small_task()
        task.w0 = np.random.default_rng(1).standard_normal(task.model.dim)
        W_next = one_step(task, 1.0 / task.beta)
        for w_next, part in zip(W_next, task.flat_parts):
            assert local_loss(task.model, w_next, part) <= local_loss(task.model, task.w0, part)

    def test_matches_axpy_composition(self):
        task = build_small_task(batch_size=3)
        task.w0 = np.random.default_rng(2).standard_normal(task.model.dim)
        rngs = seeding.generators(trainer._device_rows(0, task.n_devices))
        composed = np.stack([
            task.w0 - 0.05 * local_sgd(task.model, task.w0, one_device(task.model, part), 3, rng)
            for part, rng in zip(task.flat_parts, rngs)
        ])
        np.testing.assert_array_equal(one_step(task, 0.05), composed)


class TestGlobalAggregate:
    def test_identical_models(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(4)
        out = trainer.global_aggregate([w, w, w], np.array([0.5, 0.25, 0.25]), [0, 1, 2])
        np.testing.assert_allclose(out, w)

    def test_resampling_expectation_matches_cluster_means(self):
        task = build_small_task()
        rng = np.random.default_rng(4)
        W = rng.standard_normal((task.n_devices, task.model.dim))
        cluster_means = np.stack(
            [W[task.data.cluster_slices[c]].mean(axis=0) for c in range(len(task.clusters))]
        )
        expected = task.data.varrho @ cluster_means
        draws = []
        for _ in range(10_000):
            sampled = [
                int(rng.integers(0, spec.size)) + task.data.cluster_slices[c].start
                for c, spec in enumerate(task.clusters)
            ]
            draws.append(trainer.global_aggregate(W, task.data.varrho, sampled))
        draws = np.stack(draws)
        sem = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 4 * sem + 1e-12)


class TestDegenerateCentralizedEquivalence:
    def test_matches_gradient_descent_trajectory(self):
        # singleton clusters, tau=1, full batch, no consensus -> centralized GD
        rng = np.random.default_rng(5)
        model = LossModel(LINEAR_REGRESSION, reg=0.3, dim=3)
        parts_flat = [
            DevicePartition(i, rng.standard_normal((6, 3)), rng.standard_normal(6))
            for i in range(4)
        ]
        clusters = [singleton_cluster(i, p) for i, p in enumerate(parts_flat)]
        task = trainer.make_task(model, clusters, [[p] for p in parts_flat])
        steps = StepSchedule(kind="constant", eta_const=0.05)
        trace = trainer.run_tthf(
            task, steps, TrainingSchedule.uniform(30, 1), GammaPlan(), seed=0
        )
        w = task.w0.copy()
        gaps = []
        for _ in range(30):
            g = sum(local_grad(model, w, p) for p in parts_flat) / 4
            w = w - 0.05 * g
            gaps.append(task.global_loss(w) - task.f_star)
        np.testing.assert_allclose(trace.loss_gap_sampled, gaps, atol=1e-10)


class TestTrendExamples:
    def test_more_rounds_lower_final_loss_on_heterogeneous_data(self):
        # toy-scale directional check; the full ordering is exercised at
        # network scale in the acceptance suite
        task = build_small_task(mode="extreme", per_label=100)
        steps = StepSchedule(kind="constant", eta_const=0.5 / task.beta)
        finals = {}
        for gamma in (0, 5):
            gaps = []
            for seed in (11, 12, 13):
                trace = trainer.run_tthf(
                    task,
                    steps,
                    TrainingSchedule.uniform(100, 20),
                    GammaPlan(mode="fixed", value=gamma, cadence=5),
                    seed=seed,
                )
                gaps.append(float(np.mean(trace.loss_gap_sampled[-20:])))
            finals[gamma] = float(np.mean(gaps))
        assert finals[5] < finals[0]


@pytest.fixture(scope="module")
def trace():
    task = build_small_task()
    steps = StepSchedule(kind="diminishing", gamma=2 / task.mu, alpha=50.0)
    return trainer.run_tthf(
        task,
        steps,
        TrainingSchedule.uniform(47, 10),
        GammaPlan(mode="fixed", value=2, cadence=5),
        seed=21,
    )


class TestTraceInvariants:

    def test_one_record_per_timestep(self, trace):
        np.testing.assert_array_equal(trace.t, np.arange(1, 48))

    def test_boundaries_cover_horizon(self, trace):
        assert trace.boundaries == [10, 20, 30, 40, 47]
        assert trace.taus == [10, 10, 10, 10, 7]

    def test_interval_records_are_the_control_rows(self, trace):
        assert trace.boundaries == [row["t_k"] for row in trace.control_rows]
        assert trace.taus == [row["tau_k"] for row in trace.control_rows]
        assert sum(trace.taus) == len(trace)

    def test_csv_column_order(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,loss_gap_sampled,loss_gap_avg,dispersion,eps_rms,gamma_total,energy_J,delay_s"

    def test_csv_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = trainer.MetricsTrace.from_csv(path)
        np.testing.assert_array_equal(back.t, trace.t)
        np.testing.assert_array_equal(back.loss_gap_sampled, trace.loss_gap_sampled)
        np.testing.assert_array_equal(back.energy, trace.energy)


class TestBroadcastReset:
    def test_dispersion_restarts_after_aggregation(self):
        task = build_small_task(mode="extreme")
        steps = StepSchedule(kind="constant", eta_const=0.3 / task.beta)
        trace = trainer.run_tthf(
            task, steps, TrainingSchedule.uniform(40, 10), GammaPlan(), seed=3
        )
        for t_k in trace.boundaries[:-1]:
            # first step of the next interval starts from a common broadcast model,
            # so its dispersion must collapse relative to the interval end
            assert trace.dispersion[t_k] < trace.dispersion[t_k - 1] * 0.5


class TestDeterminism:
    def test_identical_seed_identical_trace_bytes(self, tmp_path):
        task = build_small_task(batch_size=4)
        steps = StepSchedule(kind="diminishing", gamma=2 / task.mu, alpha=40.0)
        blobs = []
        for run in range(2):
            trace = trainer.run_tthf(
                task,
                steps,
                TrainingSchedule.uniform(25, 5),
                GammaPlan(mode="fixed", value=1, cadence=5),
                seed=123,
            )
            path = tmp_path / f"t{run}.csv"
            trace.to_csv(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seeds_differ(self):
        task = build_small_task(batch_size=4)
        steps = StepSchedule(kind="constant", eta_const=0.02)
        traces = [
            trainer.run_tthf(
                task,
                steps,
                TrainingSchedule.uniform(10, 5),
                GammaPlan(),
                seed=s,
            )
            for s in (1, 2)
        ]
        assert not np.array_equal(traces[0].loss_gap_sampled, traces[1].loss_gap_sampled)


class TestBaseline:
    def test_full_participation_aggregates_all_devices(self):
        task = build_small_task()
        steps = StepSchedule(kind="constant", eta_const=0.2 / task.beta)
        trace = trainer.run_baseline(task, steps, 20, 5, seed=9)
        # sampled and average gaps coincide for full participation
        np.testing.assert_allclose(trace.loss_gap_sampled, trace.loss_gap_avg, atol=1e-12)

    def test_server_model_is_the_average_model(self):
        task = build_small_task()
        steps = StepSchedule(kind="constant", eta_const=0.2 / task.beta)
        evaluated = []
        global_loss = task.global_loss

        def record(w):
            evaluated.append(w.copy())
            return global_loss(w)

        task.global_loss = record
        trainer.run_baseline(task, steps, 20, [3, 7, 7, 7], seed=9)
        # one block of 16 steps and one of 4: the server models, then the average models
        assert [len(w) for w in evaluated] == [16, 16, 4, 4]
        for hat, bar in zip(evaluated[0::2], evaluated[1::2]):
            np.testing.assert_array_equal(hat, bar)

    def test_horizon_cuts_the_last_interval(self):
        task = build_small_task()
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        trace = trainer.run_baseline(task, steps, 33, 7, seed=1)
        assert trace.boundaries == [7, 14, 21, 28, 33]
        assert trace.taus == [7, 7, 7, 7, 5]
        # the cost objective prices the last interval at the 5 steps it ran
        cost = CostParams()
        last = experiment.accumulate_cost(trace, cost).interval_terms[-1]
        assert last["a"] == cost.c1 * float(trace.energy[28:].sum()) / 5
        assert last["b"] == cost.c2 * float(trace.delay[28:].sum()) / 5

    def test_lengths_short_of_the_horizon_are_rejected(self):
        # a list of interval lengths is a TrainingSchedule's: it must cover T
        task = build_small_task()
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        with pytest.raises(ValueError, match="sum to 10 < T=30"):
            trainer.run_baseline(task, steps, 30, [5, 5])

    def test_unequal_cluster_baseline_bytes_are_pinned(self, tmp_path):
        # full participation on clusters of sizes 3, 2, 3, 5: its server model is
        # the average model, from cluster means taken one size group at a time.
        # T=37 ends in a 5-step metric block and tau=5 puts aggregations inside
        # blocks and on a block's last step; a change to the float operations
        # of the means, the average model or the accuracy changes these bytes
        task = unequal_cluster_task(eval_accuracy=True)
        steps = StepSchedule(kind="diminishing", gamma=2 / task.mu, alpha=30.0)
        trace = trainer.run_baseline(task, steps, 37, 5, seed=5)
        trace.to_csv(tmp_path / "trace.csv")
        digests = [
            hashlib.sha256(blob).hexdigest()
            for blob in ((tmp_path / "trace.csv").read_bytes(), trace.accuracy.tobytes())
        ]
        assert digests == [
            "6a2832e41607311d18bd2ac8d8664d245e84a14d770531db5409c0f45ea261a3",
            "071fe33a86a4c05161b0b9292bcf25cb71741095c8b8e6f73341cecfc39b2a72",
        ]

    def test_baseline_energy_scales_with_device_count(self):
        task = build_small_task()  # 4 clusters x 3 devices
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        base = trainer.run_baseline(task, steps, 10, 5, seed=1)
        tthf = trainer.run_tthf(
            task, steps, TrainingSchedule.uniform(10, 5), GammaPlan(), seed=1
        )
        # 2 aggregations each; full participation uploads I/N = 3x more
        assert base.energy.sum() == pytest.approx(3.0 * tthf.energy.sum())


class TestTaskLabels:
    @staticmethod
    def six_label_task(**kwargs):
        ds = data.gen_synthetic(4, 6, 30, 1.0, 5)
        model = LossModel(kind=LINEAR_REGRESSION, reg=0.5, dim=4)
        flat = data.partition(ds, 6, data.PartitionPlan("iid", seed=1), kind=model.kind)
        clusters = topology.build_network(2, 3, 50.0, topology.ChannelParams(), seed=2)
        return trainer.make_task(model, clusters, [flat[:3], flat[3:]], **kwargs)

    def test_accuracy_scores_every_label_of_the_data(self):
        task = self.six_label_task()
        assert task.data.n_labels == 6
        rng = np.random.default_rng(0)
        for w in (task.w_star, *rng.standard_normal((5, task.model.dim))):
            assert task.accuracy(w) == accuracy_oracle(task.model, w, task.data, 6)

    @pytest.mark.parametrize("n_labels", [6, 9])
    def test_a_label_count_that_covers_the_data_changes_nothing(self, n_labels):
        w = self.six_label_task().w_star
        assert self.six_label_task(n_labels=n_labels).accuracy(w) == self.six_label_task().accuracy(w)

    def test_a_label_count_below_the_data_is_rejected(self):
        with pytest.raises(ValueError, match="n_labels=2 does not cover the data's 6 labels"):
            self.six_label_task(n_labels=2)


class TestNanGuard:
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergent_step_aborts_with_timestep(self):
        task = build_small_task()
        steps = StepSchedule(kind="constant", eta_const=1e12)
        with pytest.raises(RuntimeError, match="NaN .* t="):
            trainer.run_tthf(
                task,
                steps,
                TrainingSchedule.uniform(500, 10),
                GammaPlan(),
                seed=2,
            )

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_certified_round_rule_refuses_an_infinite_intermediate_model(self, monkeypatch):
        # an infinite entry passes the NaN guard; the exact divergence of its
        # cluster is not finite (NaN from the pair-difference matmul's 0 * inf),
        # and the round rule refuses it
        task = build_small_task()
        grad_full = losses.grad_full

        def overflowing(model, W, data):
            grads = grad_full(model, W, data)
            grads[1, 0] = -np.inf
            return grads

        monkeypatch.setattr(losses, "grad_full", overflowing)
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        plan = GammaPlan(mode="certified", phi=0.5, max_rounds=60)
        with pytest.raises(ValueError, match="upsilon must be non-negative and finite"):
            trainer.run_tthf(task, steps, TrainingSchedule.uniform(6, 3), plan, seed=1)


def reference_tthf(task, steps, schedule, plan, lossy=False, seed=0):
    """TT-HF with a plain loop over clusters: the oracle of the batched engine.

    Per step and cluster it picks the rounds with the scalar rule, runs them
    one `V @ z` (or one effective matrix) at a time, and measures that
    cluster's error and mean; it evaluates every step's metrics, the accuracy
    too when the task asks for it, as that step ends. Returns the trace
    columns and the per-cluster rounds.
    """
    cost = CostParams()
    clusters, slices, varrho = task.clusters, task.data.cluster_slices, task.data.varrho
    T, taus = schedule.T, list(schedule.taus)
    rng_sampling = np.random.default_rng(np.random.SeedSequence([seed, trainer._STREAM_SAMPLING]))
    outage_rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, trainer._STREAM_OUTAGE, c]))
        for c in range(len(clusters))
    ]
    dev_rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, trainer._STREAM_SGD, d]))
        for d in range(task.n_devices)
    ]

    def sample():
        return [
            int(rng_sampling.integers(0, spec.size)) + sl.start
            for spec, sl in zip(clusters, slices)
        ]

    W = np.tile(task.w0, (task.n_devices, 1)).astype(float)
    sampled = sample()
    names = ("gap_s", "gap_a", "disp", "eps", "energy", "delay") + (("acc",) if task.eval_accuracy else ())
    cols = {name: [] for name in names}
    gammas = np.zeros((T, len(clusters)), dtype=int)
    k, t_km1 = 1, 0
    t_k = min(taus[0], T)
    for t in range(1, T + 1):
        if task.batch_size is None:
            grads = np.stack([
                local_grad(task.model, W[d], part) for d, part in enumerate(task.flat_parts)
            ])
        else:
            grads = np.stack([
                local_sgd(task.model, W[d], one_device(task.model, part), task.batch_size, dev_rngs[d])
                for d, part in enumerate(task.flat_parts)
            ])
        W_tilde = W - steps.eta(t - 1) * grads
        W_new = np.empty_like(W_tilde)
        means, eps2 = [], []
        for c, (spec, sl) in enumerate(zip(clusters, slices)):
            wt_c = W_tilde[sl]
            if plan.mode == "certified":
                g = scalar_gamma_rounds(steps.eta(t), plan.phi, spec.size, divergence_exact(wt_c),
                                        spec.lambda_c, gamma_max=plan.max_rounds)
            elif plan.mode == "fixed" and plan.value and (t - t_km1) % plan.cadence == 0:
                g = plan.value
            else:
                g = 0
            gammas[t - 1, c] = g
            n = spec.size
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if spec.V[i, j] != 0.0]
            z = wt_c.copy()
            for _ in range(g):
                if lossy:
                    probs = np.array([spec.link_outage[i, j] for i, j in edges])
                    lost = outage_rngs[c].random(len(edges)) < probs
                    z = effective_matrix(spec.V, [e for e, m in zip(edges, lost) if m]) @ z
                else:
                    z = spec.V @ z
            W_new[sl] = z
            errs, _ = consensus_error(z, wt_c)
            eps2.append(float(np.mean(errs**2)))
            means.append(wt_c.mean(axis=0))
        W = W_new
        w_hat = sum(varrho[c] * W[i] for c, i in enumerate(sampled))
        means = np.stack(means)
        cols["gap_s"].append(task.global_loss(w_hat) - task.f_star)
        cols["gap_a"].append(task.global_loss(varrho @ means) - task.f_star)
        cols["disp"].append(dispersion_sample(means, varrho))
        cols["eps"].append(float(np.sqrt(varrho @ np.array(eps2))))
        if task.eval_accuracy:
            cols["acc"].append(accuracy_oracle(task.model, w_hat, task.data, task.data.n_labels))
        energy = float((gammas[t - 1] * [spec.size for spec in clusters]).sum() * cost.e_d2d)
        delay = float(gammas[t - 1].sum() * cost.delta_d2d)
        if t == t_k:
            energy += cost.e_glob
            delay += cost.delta_glob
            W = np.tile(w_hat, (task.n_devices, 1))
            sampled = sample()
            t_km1 = t
            k += 1
            t_k = min(t_km1 + taus[k - 1], T) if t < T else T
        cols["energy"].append(energy)
        cols["delay"].append(delay)
    return {name: np.array(v) for name, v in cols.items()}, gammas


def regression_task_on(clusters, seed, **task_options):
    """A regression task whose devices, in cluster order, hold an extreme partition of synthetic data."""
    sizes = [spec.size for spec in clusters]
    ds = data.gen_synthetic(4, 4, 60, 2.0, seed)
    model = LossModel(kind=LINEAR_REGRESSION, reg=0.5, dim=4)
    flat = data.partition(ds, sum(sizes), data.PartitionPlan("extreme", seed=seed + 1), kind=model.kind)
    bounds_ = np.cumsum([0] + sizes)
    parts = [flat[a:b] for a, b in zip(bounds_[:-1], bounds_[1:])]
    return trainer.make_task(model, clusters, parts, **task_options)


def unequal_cluster_task(sizes=(3, 2, 3, 5), seed=4, **task_options):
    """Clusters of several sizes; the two size-3 clusters are not adjacent in device order."""
    channel, step = topology.ChannelParams(), topology.DEFAULT_MIXING_STEP
    clusters = [
        build_cluster(c, size, 50.0, channel, step, seed) for c, size in enumerate(sizes)
    ]
    return regression_task_on(clusters, seed, **task_options)


def metropolis_cluster_task(sizes=(6, 8, 7), seed=10):
    """Hand-built clusters with Metropolis weights on random connected graphs,
    every link lost with probability 0.4; a node's link weights differ, unlike
    a uniform-step V's."""
    rng = np.random.default_rng(seed)
    clusters = []
    for c, n in enumerate(sizes):
        adj = random_connected_adjacency(rng, n)
        V = metropolis_matrix(adj)
        clusters.append(ClusterSpec(
            index=c, positions=np.zeros((n, 2)), adjacency=adj, V=V,
            lambda_c=topology.spectral_radius(V), link_outage=np.where(adj, 0.4, 0.0),
        ))
    return regression_task_on(clusters, seed)


class TestMetropolisLossyRun:
    def test_lossy_metropolis_run_bytes_are_pinned(self, tmp_path):
        # the benchmark networks' V has one weight per node, so the order in
        # which a node's lost links fold onto its diagonal shows only here
        task = metropolis_cluster_task()
        assert any(len(set(row[row > 0].tolist())) > 1 for spec in task.clusters
                   for row in np.where(spec.adjacency, spec.V, 0.0))
        steps = StepSchedule(kind="diminishing", gamma=2 / task.mu, alpha=30.0)
        trace = trainer.run_tthf(
            task, steps, TrainingSchedule.uniform(33, 7), GammaPlan(mode="fixed", value=4, cadence=1),
            lossy=True, seed=5,
        )
        trace.to_csv(tmp_path / "trace.csv")
        digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
        assert digest == "5200d4a5d25e6181e2c644098c7d46f6323eb3e4731dcdf72c20dfca1beb7bb8"


CERTIFIED = GammaPlan(mode="certified", phi=0.5, max_rounds=60)
# (task builder, round plan, lossy links)
ORACLE_CASES = {
    "fixed": (build_small_task, GammaPlan(mode="fixed", value=3, cadence=2), False),
    "certified": (build_small_task, CERTIFIED, False),
    "lossy": (
        lambda: build_small_task(batch_size=4), GammaPlan(mode="fixed", value=4, cadence=1), True
    ),
    "unequal-certified": (unequal_cluster_task, CERTIFIED, False),
    "unequal-lossy": (unequal_cluster_task, GammaPlan(mode="fixed", value=3, cadence=1), True),
    "svm-minibatch-accuracy": (
        lambda: build_small_task(kind=SQUARED_HINGE_SVM, batch_size=4, eval_accuracy=True),
        CERTIFIED,
        False,
    ),
}


class TestBatchedEngineOracle:
    def test_unequal_sizes_group_by_size(self):
        task = unequal_cluster_task()
        groups = losses.size_groups([spec.size for spec in task.clusters])
        assert [(members.dtype.kind, members.tolist(), size) for members, _, size in groups] == [
            ("i", [0, 2], 3), ("i", [1], 2), ("i", [3], 5)
        ]
        np.testing.assert_array_equal(groups[0][1], [0, 1, 2, 5, 6, 7])
        assert groups[2][1] == slice(8, 13)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_run_protocol_matches_per_cluster_loop(self, case):
        make, plan, lossy = ORACLE_CASES[case]
        task = make()
        steps = StepSchedule(kind="diminishing", gamma=2 / task.mu, alpha=30.0)
        schedule = TrainingSchedule.uniform(33, 7)
        trace = trainer.run_tthf(task, steps, schedule, plan, lossy=lossy, seed=5)
        expected, gammas = reference_tthf(task, steps, schedule, plan, lossy=lossy, seed=5)
        assert gammas.any()
        np.testing.assert_array_equal(trace.gamma_by_cluster, gammas)
        np.testing.assert_array_equal(trace.gamma_total, gammas.sum(axis=1))
        got = {
            "gap_s": trace.loss_gap_sampled, "gap_a": trace.loss_gap_avg, "disp": trace.dispersion,
            "eps": trace.eps_rms, "energy": trace.energy, "delay": trace.delay, "acc": trace.accuracy,
        }
        assert (trace.accuracy is not None) == ("acc" in expected)
        for name, column in expected.items():
            if lossy:
                # no matrix power on the lossy path: the same arithmetic in the same order
                np.testing.assert_array_equal(got[name], column, err_msg=name)
            else:
                np.testing.assert_allclose(got[name], column, rtol=1e-12, atol=1e-12, err_msg=name)


class TestOutageStreams:
    @pytest.mark.parametrize("lossy", [False, True])
    def test_only_a_lossy_run_builds_outage_streams(self, monkeypatch, lossy):
        built = []

        def counting(rng):
            built.append(rng)
            return consensus.OutageStream(rng)

        monkeypatch.setattr(trainer, "OutageStream", counting)
        task = build_small_task()
        plan = GammaPlan(mode="fixed", value=2, cadence=1)
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        trainer.run_tthf(task, steps, TrainingSchedule.uniform(6, 3), plan, lossy=lossy, seed=4)
        assert len(built) == (len(task.clusters) if lossy else 0)

    def test_each_stream_refills_once_per_block_inside_a_gossip_call(self, monkeypatch):
        # a fixed-round lossy run: each cluster's stream draws one block of
        # whole rounds when it runs out, once per block // m rounds, and each
        # draw runs inside a traced trainer.run_consensus call, so a
        # benchmark's gossip layer holds it
        task = unequal_cluster_task(sizes=(3, 1, 3, 5))  # a one-device cluster draws nothing
        gamma, T = 5, 60
        inside, streams = [], []
        gossip = trainer.run_consensus

        class Recording:
            def __init__(self, gen):
                self.gen, self.draws = gen, []

            def random(self, size):
                self.draws.append((size, bool(inside)))
                return self.gen.random(size)

        def traced_gossip(*args, **kwargs):
            inside.append(True)
            try:
                return gossip(*args, **kwargs)
            finally:
                inside.pop()

        def recording_stream(rng):
            streams.append(consensus.OutageStream(Recording(rng)))
            return streams[-1]

        monkeypatch.setattr(trainer, "run_consensus", traced_gossip)
        monkeypatch.setattr(trainer, "OutageStream", recording_stream)
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        plan = GammaPlan(mode="fixed", value=gamma, cadence=1)
        trainer.run_tthf(task, steps, TrainingSchedule.uniform(T, 7), plan, lossy=True, seed=4)
        assert len(streams) == len(task.clusters)
        assert any(stream._m == 0 for stream in streams) and any(stream._m > 1 for stream in streams)
        for stream in streams:
            m = stream._m
            rows = stream.block // m if m else 0
            expected = [(rows * m, True)] * (-(-T * gamma // rows) if m else 0)
            assert stream.rng.draws == expected


class TestTopologyRefresh:
    @pytest.mark.parametrize(
        "n_clusters, cluster_size", [(4, 4), (3, 3), (5, 3)],
        ids=["other-sizes", "fewer-clusters", "more-clusters"],
    )
    def test_a_refresh_that_changes_the_cluster_sizes_is_rejected(self, n_clusters, cluster_size):
        task = build_small_task()  # 4 clusters of 3 devices
        refreshed = []

        def refresh(k):
            refreshed.append(k)
            return topology.build_network(n_clusters, cluster_size, 50.0, topology.ChannelParams(), seed=k)

        plan = GammaPlan(mode="fixed", value=2, cadence=1)
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        with pytest.raises(ValueError, match="topology refresh must preserve cluster sizes"):
            trainer.run_tthf(task, steps, TrainingSchedule.uniform(9, 3), plan, seed=4, topology_refresh=refresh)
        # the first refresh, when interval 1 ends, is refused
        assert refreshed == [2]

    def test_a_refresh_to_the_same_network_moves_no_loss(self, tmp_path, monkeypatch):
        # every refresh hands each stream a new gossip object of the same matrices:
        # it re-reads its unused uniforms at the same link count, so each loss
        # falls where it falls in the run without a refresh
        task = build_small_task()
        plan = GammaPlan(mode="fixed", value=2, cadence=1)
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        epochs, streams = [], []
        d2d_epoch = trainer.d2d_epoch

        def recording_epoch(*args, **kwargs):
            epochs.append(d2d_epoch(*args, **kwargs))
            return epochs[-1]

        def recording_stream(rng):
            streams.append(consensus.OutageStream(rng))
            return streams[-1]

        monkeypatch.setattr(trainer, "d2d_epoch", recording_epoch)
        monkeypatch.setattr(trainer, "OutageStream", recording_stream)
        runs = {
            "static": (True, None),
            "refreshed": (True, lambda k: copy.deepcopy(task.clusters)),
            "lossless": (False, None),
        }
        digests = {}
        for name, (lossy, refresh) in runs.items():
            del epochs[:], streams[:]
            trace = trainer.run_tthf(
                task, steps, TrainingSchedule.uniform(40, 5), plan, lossy=lossy, seed=4, topology_refresh=refresh
            )
            trace.to_csv(tmp_path / f"{name}.csv")
            digests[name] = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
            if name == "refreshed":
                # eight epochs, and every stream ends bound to the last one's gossip
                assert len(epochs) == 8
                assert [s._gossip for s in streams] == epochs[-1].gossip
        assert digests["refreshed"] == digests["static"] != digests["lossless"]

    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless-run", "lossy-run"])
    def test_a_starting_epoch_of_the_other_kind_is_rejected(self, lossy):
        task = build_small_task()
        plan = GammaPlan(mode="fixed", value=2, cadence=1)
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        epoch = trainer.d2d_epoch(task.clusters, not lossy)
        with pytest.raises(ValueError, match="lossy exactly when the run is"):
            trainer.run_tthf(task, steps, TrainingSchedule.uniform(9, 3), plan, lossy=lossy, epoch=epoch)


class TestEpochGossip:
    @pytest.mark.parametrize("refresh", [False, True], ids=["static", "refreshed"])
    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("adaptive", [False, True], ids=["certified", "adaptive"])
    def test_the_engine_builds_no_gossip_and_one_lambda_table_per_epoch(self, monkeypatch, adaptive, lossy, refresh):
        # V^gamma, the edge tables and the lambda powers come from the epoch:
        # once it is built, the engine makes no ClusterGossip and no edge table,
        # and the round rule builds each epoch's lambda table once at 128 powers
        # and again only when its search doubles the width, never once per step
        task = build_small_task()
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        config = control.AdaptiveConfig(T=30, tau_max=6, tau1=3, zeta_frac=0.02, sigma_batch=8)
        # a target of 1e-9 takes up to 174 rounds, past the first table's 128
        plan = GammaPlan(mode="certified", phi=1e-9, max_rounds=600)

        def fresh(k):
            return topology.build_network(4, 3, 50.0, topology.ChannelParams(), seed=40 + k)

        def run():
            if adaptive:
                return control.run_adaptive(
                    task, config, lossy=lossy, seed=4, topology_refresh=fresh if refresh else None
                )[0]
            return trainer.run_tthf(
                task, steps, TrainingSchedule.uniform(24, 4), plan,
                lossy=lossy, seed=4, topology_refresh=fresh if refresh else None,
            )

        want = run()
        d2d_epoch, widen = trainer.d2d_epoch, trainer.LambdaPowers.widen
        builders = {
            (consensus, "_edges"): consensus._edges,
            (consensus.ClusterGossip, "__init__"): consensus.ClusterGossip.__init__,
        }
        epochs, builds = [], []

        def forbidden(*args):
            raise AssertionError("a gossip object or edge table built on the engine's path")

        def epoch_then_forbid(*args, **kwargs):
            for (owner, name), function in builders.items():
                monkeypatch.setattr(owner, name, function)
            epochs.append(d2d_epoch(*args, **kwargs))
            for owner, name in builders:
                monkeypatch.setattr(owner, name, forbidden)
            return epochs[-1]

        def counted_widen(powers, width):
            before = powers.table
            table = widen(powers, width)
            if table is not before:
                builds.append((powers, table.shape[1]))
            return table

        monkeypatch.setattr(trainer, "d2d_epoch", epoch_then_forbid)
        monkeypatch.setattr(trainer.LambdaPowers, "widen", counted_widen)
        got = run()
        assert np.unique(got.gamma_by_cluster).size > 2  # several round counts, so several powers
        for column in ("loss_gap_sampled", "eps_rms", "gamma_total"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        assert len(epochs) == (len(got.boundaries) if refresh else 1)
        widths = [[width for powers, width in builds if powers is epoch.lambda_powers] for epoch in epochs]
        assert sum(map(len, widths)) == len(builds) and widths[0]
        for built in widths:
            assert built == [128 * 2**i for i in range(len(built))]
        # the adaptive rule caps its counts at gamma_max=100, inside the first table
        assert max(map(len, widths)) == (1 if adaptive else 2)


def per_step_metrics(W_tilde, W, groups, varrho, sampled):
    """One step's cluster means, average model, server model and eps_rms by the
    per-step formulas the engine used before it stacked them in blocks."""
    dim = W.shape[-1]
    means, eps2 = np.empty((len(varrho), dim)), np.empty(len(varrho))
    for members, dev_rows, size in groups:
        block = W_tilde[dev_rows].reshape(len(members), size, dim)
        errs, _ = consensus_error(W[dev_rows].reshape(len(members), size, dim), block)
        eps2[members] = np.mean(errs**2, axis=-1)
        means[members] = block.mean(axis=1)
    bar = varrho @ means
    hat = bar if sampled is None else trainer.global_aggregate(W, varrho, sampled)
    return means, bar, hat, np.sqrt(varrho @ eps2)


class TestBlockMetricsOracle:
    # clusters of up to 20 devices, as at d = 1 numpy's mean sums 8 or more
    # members pairwise, and an all -0.0 column, whose mean is +0.0 because
    # numpy's sum starts from 0.0
    @given(
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6), n=st.integers(1, 16),
        dim=st.one_of(st.just(1), st.integers(1, 40)), sampled_rows=st.booleans(),
        zero_column=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=[8, 20, 13], n=16, dim=1, sampled_rows=False, zero_column=False, seed=3)
    @example(sizes=[3, 1], n=4, dim=3, sampled_rows=True, zero_column=True, seed=5)
    def test_stacked_reductions_equal_the_per_step_formulas(
        self, sizes, n, dim, sampled_rows, zero_column, seed
    ):
        # the first size comes again last, so its group's rows are not consecutive
        # unless every size between is the same
        sizes = sizes + sizes[:1]
        groups = losses.size_groups(sizes)
        n_dev = sum(sizes)
        rng = np.random.default_rng(seed)
        W_tilde = 10.0 ** rng.integers(-2, 3) * rng.standard_normal(dim) + 10.0 ** rng.integers(
            -6, 1
        ) * rng.standard_normal((n, n_dev, dim))
        W = W_tilde + 10.0 ** rng.integers(-8, 0) * rng.standard_normal(W_tilde.shape)
        if zero_column:
            W_tilde[..., -1] = -0.0
        varrho = np.array(sizes, dtype=float) / n_dev
        starts = np.cumsum([0] + sizes[:-1])
        sampled = starts + rng.integers(0, sizes, size=(n, len(sizes))) if sampled_rows else None
        stacked = trainer.block_metrics(W_tilde, W, groups, varrho, sampled)
        for r in range(n):
            rows = None if sampled is None else sampled[r]
            want = per_step_metrics(W_tilde[r], W[r], groups, varrho, rows)
            one_row = trainer.block_metrics(
                W_tilde[r, None], W[r, None], groups, varrho, None if rows is None else rows[None]
            )
            for name, block, single, value in zip(("means", "bar", "hat", "eps"), stacked, one_row, want):
                assert block[r].tobytes() == single[0].tobytes() == np.asarray(value).tobytes(), name


class TestTraceLength:
    @given(T=st.integers(1, 40), tau=st.integers(1, 15), gamma=st.integers(0, 3))
    def test_length_equals_effective_horizon(self, small_task, T, tau, gamma):
        steps = StepSchedule(kind="constant", eta_const=0.1 / small_task.beta)
        plan = GammaPlan(mode="fixed", value=gamma, cadence=1)
        trace = trainer.run_tthf(small_task, steps, TrainingSchedule.uniform(T, tau), plan, seed=1)
        assert len(trace) == T == trace.boundaries[-1]
        np.testing.assert_array_equal(trace.t, np.arange(1, T + 1))

"""Protocol loop semantics: SGD steps, aggregation, broadcast resets, determinism."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tthf import data, losses, topology, trainer
from tthf.bounds import dispersion_sample
from tthf.consensus import OutagePolicy, consensus_error, divergence_exact
from tthf.control import gamma_rounds
from tthf.costs import CostParams
from tthf.losses import LINEAR_REGRESSION, DevicePartition, LossModel
from tthf.schedules import GammaPlan, StepSchedule, TrainingSchedule
from tthf.topology import ClusterSpec

from conftest import build_small_task, effective_matrix, local_grad, local_loss, local_sgd, one_device


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
            task.data.n_points, task.batch_size, trainer.device_rngs(0, task.n_devices)
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
        rngs = trainer.device_rngs(0, task.n_devices)
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
            task, steps, TrainingSchedule.uniform(30, 1), GammaPlan(mode="none"), seed=0
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
            task, steps, TrainingSchedule.uniform(40, 10), GammaPlan(mode="none"), seed=3
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
                GammaPlan(mode="none"),
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

    def test_baseline_energy_scales_with_device_count(self):
        task = build_small_task()  # 4 clusters x 3 devices
        steps = StepSchedule(kind="constant", eta_const=0.1 / task.beta)
        base = trainer.run_baseline(task, steps, 10, 5, seed=1)
        tthf = trainer.run_tthf(
            task, steps, TrainingSchedule.uniform(10, 5), GammaPlan(mode="none"), seed=1
        )
        # 2 aggregations each; full participation uploads I/N = 3x more
        assert base.energy.sum() == pytest.approx(3.0 * tthf.energy.sum())


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
                GammaPlan(mode="none"),
                seed=2,
            )


def reference_tthf(task, steps, schedule, plan, outage=False, seed=0):
    """TT-HF with a plain loop over clusters: the oracle of the batched engine.

    Per step and cluster it picks the rounds, runs them one `V @ z` (or one
    effective matrix) at a time, and measures that cluster's error and mean.
    Returns the trace columns and the per-cluster rounds.
    """
    cost = CostParams()
    clusters, slices, varrho = task.clusters, task.data.cluster_slices, task.data.varrho
    T, taus = schedule.T, list(schedule.taus)
    rng_sampling = np.random.default_rng(np.random.SeedSequence([seed, trainer._STREAM_SAMPLING]))
    outage_rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, trainer._STREAM_OUTAGE, c]))
        for c in range(len(clusters))
    ]
    dev_rngs = trainer.device_rngs(seed, task.n_devices)

    def sample():
        return [
            int(rng_sampling.integers(0, spec.size)) + sl.start
            for spec, sl in zip(clusters, slices)
        ]

    W = np.tile(task.w0, (task.n_devices, 1)).astype(float)
    sampled = sample()
    cols = {name: [] for name in ("gap_s", "gap_a", "disp", "eps", "energy", "delay")}
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
                g = gamma_rounds(steps.eta(t), plan.phi, spec.size, divergence_exact(wt_c),
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
                if outage:
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
        energy = float((gammas[t - 1] * [spec.size for spec in clusters]).sum() * cost.e_d2d)
        delay = float(gammas[t - 1].sum() * cost.delta_d2d)
        if t == t_k:
            energy += cost.e_glob
            delay += cost.delta_glob
            W = np.tile(w_hat, (task.n_devices, 1))
            sampled = sample()
            t_km1 = t
            k += 1
            t_k = min(t_km1 + (taus[k - 1] if k - 1 < len(taus) else taus[-1]), T)
        cols["energy"].append(energy)
        cols["delay"].append(delay)
    return {name: np.array(v) for name, v in cols.items()}, gammas


def unequal_cluster_task(sizes=(3, 2, 3, 5), seed=4):
    """Clusters of several sizes; the two size-3 clusters are not adjacent in device order."""
    ds = data.gen_synthetic(4, 4, 60, 2.0, seed)
    model = LossModel(kind=LINEAR_REGRESSION, reg=0.5, dim=4)
    plan = data.PartitionPlan("extreme", seed=seed + 1)
    flat = data.partition(ds, sum(sizes), plan, kind=model.kind)
    channel, step = topology.ChannelParams(), topology.DEFAULT_MIXING_STEP
    clusters = [
        topology.build_cluster(c, size, 50.0, channel, step, seed) for c, size in enumerate(sizes)
    ]
    bounds_ = np.cumsum((0,) + tuple(sizes))
    parts = [flat[a:b] for a, b in zip(bounds_[:-1], bounds_[1:])]
    return trainer.make_task(model, clusters, parts)


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
}


class TestBatchedEngineOracle:
    def test_unequal_sizes_group_by_size(self):
        task = unequal_cluster_task()
        groups = losses.size_groups([spec.size for spec in task.clusters])
        assert [(members, size) for members, _, size in groups] == [([0, 2], 3), ([1], 2), ([3], 5)]
        np.testing.assert_array_equal(groups[0][1], [0, 1, 2, 5, 6, 7])
        assert groups[2][1] == slice(8, 13)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_run_protocol_matches_per_cluster_loop(self, case):
        make, plan, lossy = ORACLE_CASES[case]
        task = make()
        steps = StepSchedule(kind="diminishing", gamma=2 / task.mu, alpha=30.0)
        schedule = TrainingSchedule.uniform(33, 7)
        outage = OutagePolicy(enabled=True) if lossy else None
        trace = trainer.run_tthf(task, steps, schedule, plan, outage=outage, seed=5)
        expected, gammas = reference_tthf(task, steps, schedule, plan, outage=lossy, seed=5)
        assert gammas.any()
        np.testing.assert_array_equal(trace.gamma_by_cluster, gammas)
        np.testing.assert_array_equal(trace.gamma_total, gammas.sum(axis=1))
        got = {
            "gap_s": trace.loss_gap_sampled, "gap_a": trace.loss_gap_avg, "disp": trace.dispersion,
            "eps": trace.eps_rms, "energy": trace.energy, "delay": trace.delay,
        }
        for name, column in expected.items():
            if lossy:
                # no matrix power on the lossy path: the same arithmetic in the same order
                np.testing.assert_array_equal(got[name], column, err_msg=name)
            else:
                np.testing.assert_allclose(got[name], column, rtol=1e-12, atol=1e-12, err_msg=name)


class TestTraceLength:
    @given(T=st.integers(1, 40), tau=st.integers(1, 15), gamma=st.integers(0, 3))
    def test_length_equals_effective_horizon(self, small_task, T, tau, gamma):
        steps = StepSchedule(kind="constant", eta_const=0.1 / small_task.beta)
        plan = GammaPlan(mode="fixed", value=gamma, cadence=1)
        trace = trainer.run_tthf(small_task, steps, TrainingSchedule.uniform(T, tau), plan, seed=1)
        assert len(trace) == T == trace.boundaries[-1]
        np.testing.assert_array_equal(trace.t, np.arange(1, T + 1))

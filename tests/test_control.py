"""Adaptive machinery: alpha selection, feasibility, phi cap, estimators,
the divergence predictor, the round rule, and the interval line search."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tthf import bounds, consensus, control, losses, topology
from tthf.control import PredictorCoeffs
from tthf.costs import CostParams
from tthf.losses import LINEAR_REGRESSION, SQUARED_HINGE_SVM, DevicePartition, LossModel
from tthf.schedules import StepSchedule
from tthf.topology import ClusterSpec

from conftest import build_small_task, local_grad, local_sgd, one_device

MU, BETA = 1.0, 2.0
GAMMA = 2.0 / MU


class TestSelectAlpha:
    def test_zero_omega_returns_alpha_min_exactly(self):
        alpha = control.select_alpha(MU, BETA, GAMMA, 0.0, tau=10)
        assert alpha == bounds.alpha_min_value(GAMMA, MU, BETA, 0.0)

    def test_returned_alpha_satisfies_predicates_minimally(self):
        alpha = control.select_alpha(MU, BETA, GAMMA, 0.05, tau=5)
        assert alpha >= bounds.alpha_min_value(GAMMA, MU, BETA, 0.05) - 1e-12
        assert bounds.omega_max_value(GAMMA, alpha, MU, BETA, 5) > 0.05
        probe = alpha - 1e-3
        violates = probe < bounds.alpha_min_value(GAMMA, MU, BETA, 0.05) or (
            bounds.omega_max_value(GAMMA, probe, MU, BETA, 5) <= 0.05
        )
        assert violates

    def test_alpha_increases_with_omega(self):
        alphas = [control.select_alpha(MU, BETA, GAMMA, w, tau=5) for w in (0.01, 0.03, 0.06, 0.1)]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] > alphas[0]

    def test_cap_exceeded_raises(self):
        with pytest.raises(control.InfeasibleError, match="diversity too large"):
            control.select_alpha(MU, BETA, GAMMA, 0.5, tau=20, cap=100.0)


class TestFeasibilityCheck:
    KW = dict(mu=MU, beta=BETA, gamma=GAMMA, omega=0.02, sigma2=0.1, delta=0.2)

    def alpha(self):
        return control.select_alpha(MU, BETA, GAMMA, 0.02, tau=5, margin=2.0)

    def test_huge_target_always_feasible(self):
        res = control.feasibility_check(100, 1e12, 5, alpha=self.alpha(), grad0_norm_sq=1.0, **self.KW)
        assert res.passed

    def test_zero_horizon_tiny_target_infeasible(self):
        res = control.feasibility_check(0, 1e-9, 5, alpha=self.alpha(), grad0_norm_sq=1.0, **self.KW)
        assert not res.passed

    def test_boundary_is_sharp(self):
        alpha = self.alpha()
        res = control.feasibility_check(100, 1.0, 5, alpha=alpha, grad0_norm_sq=1.0, **self.KW)
        xi_star = max(res.terms) / (100 + alpha)
        at = control.feasibility_check(100, xi_star, 5, alpha=alpha, grad0_norm_sq=1.0, **self.KW)
        below = control.feasibility_check(100, 0.99 * xi_star, 5, alpha=alpha, grad0_norm_sq=1.0, **self.KW)
        assert at.passed and not below.passed

    def test_binding_term_identity(self):
        res = control.feasibility_check(
            10, 1e-9, 5, alpha=self.alpha(), grad0_norm_sq=1e6, **self.KW
        )
        assert res.binding == "initial-gap"


class TestPhiMax:
    def setup_args(self, tau=5, omega=0.02):
        alpha = control.select_alpha(MU, BETA, GAMMA, omega, tau=tau, margin=2.0)
        return dict(tau=tau, mu=MU, beta=BETA, gamma=GAMMA, alpha=alpha, omega=omega,
                    sigma2=0.1, delta=0.2)

    def test_zero_at_feasibility_boundary(self):
        kw = self.setup_args()
        z1 = bounds.z1_value(GAMMA, kw["alpha"], MU, BETA, kw["tau"])
        z2_min = bounds.z2_value(GAMMA, kw["alpha"], BETA, kw["tau"], 0.1, 0.0, 0.2)
        first = (MU * GAMMA - 1.0) / (BETA**2 * GAMMA**2)
        second = (MU * GAMMA - 1.0 + 1.0 / (1.0 + kw["alpha"])) / (BETA**2 * GAMMA**2) - (
            kw["omega"] ** 2 * z1 / kw["alpha"]
        )
        nu_boundary = z2_min / min(first, second)
        assert control.phi_max(nu_boundary, **kw) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(control.InfeasibleError):
            control.phi_max(0.99 * nu_boundary, **kw)

    def test_tau_one_closed_form(self):
        kw = self.setup_args(tau=1)
        nu_max = 50.0
        sigma2 = kw["sigma2"]
        expected = math.sqrt(BETA) * math.sqrt(
            nu_max * (MU * GAMMA - 1.0) / (BETA**2 * GAMMA**2) - sigma2 / (2 * BETA)
        )
        assert control.phi_max(nu_max, **kw) == pytest.approx(expected, rel=1e-12)

    def test_self_consistency_nu_within_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tau = int(rng.integers(1, 8))
            omega = float(rng.uniform(0.0, 0.05))
            sigma2 = float(rng.uniform(0.0, 0.5))
            delta = float(rng.uniform(0.0, 0.5))
            alpha = control.select_alpha(MU, BETA, GAMMA, omega, tau=tau, margin=2.0)
            kw = dict(tau=tau, mu=MU, beta=BETA, gamma=GAMMA, alpha=alpha, omega=omega,
                      sigma2=sigma2, delta=delta)
            res = control.feasibility_check(200, 5.0, tau, alpha=alpha, grad0_norm_sq=0.1,
                                            mu=MU, beta=BETA, gamma=GAMMA, omega=omega,
                                            sigma2=sigma2, delta=delta)
            if not res.passed:
                continue
            phi = control.phi_max(res.nu_max, **kw)
            consts = bounds.thm2_constants(
                GAMMA, alpha, MU, BETA, tau, sigma2, phi, delta,
                0.1 / (2 * MU), omega,
            )
            assert consts.nu <= res.nu_max * (1 + 1e-9)


class TestEstimateSigma:
    def make_part(self, rng, n=6, m=3):
        return DevicePartition(0, rng.standard_normal((n, m)), rng.standard_normal(n))

    def test_full_batch_twice_is_zero(self):
        rng = np.random.default_rng(1)
        part = self.make_part(rng)
        model = LossModel(LINEAR_REGRESSION, reg=0.1, dim=3)
        s2, g = control.estimate_sigma(model, losses.DeviceData(model, [[part]]), 0, np.zeros(3), 6, rng)
        assert s2 == 0.0
        np.testing.assert_allclose(g, local_grad(model, np.zeros(3), part))

    def test_constant_dataset_zero_variance(self):
        X = np.tile([1.0, 2.0], (5, 1))
        part = DevicePartition(0, X, np.full(5, 3.0))
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=2)
        s2, _ = control.estimate_sigma(
            model, losses.DeviceData(model, [[part]]), 0, np.ones(2), 2, np.random.default_rng(2)
        )
        assert s2 == pytest.approx(0.0, abs=1e-20)

    def test_mean_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        part = self.make_part(rng, n=6)
        model = LossModel(LINEAR_REGRESSION, reg=0.2, dim=3)
        w = rng.standard_normal(3)
        exact = local_grad(model, w, part)
        # exact E|g_batch - grad|^2 by enumerating all C(6,2) batches
        from itertools import combinations

        sq = []
        for idx in combinations(range(6), 2):
            g = (
                sum(losses.grad_point(model, w, part.X[i], part.y[i]) for i in idx) / 2
            )
            sq.append(np.sum((g - exact) ** 2))
        enum_var = float(np.mean(sq))
        stacked = losses.DeviceData(model, [[part]])
        draws = [control.estimate_sigma(model, stacked, 0, w, 2, rng)[0] for _ in range(10_000)]
        mean = float(np.mean(draws))
        sem = float(np.std(draws, ddof=1) / np.sqrt(len(draws)))
        assert mean <= enum_var + 4 * sem
        assert abs(mean - enum_var) <= 4 * sem

    @given(kind=st.sampled_from([LINEAR_REGRESSION, SQUARED_HINGE_SVM]),
           counts=st.lists(st.integers(1, 7), min_size=1, max_size=7),
           dim=st.integers(1, 4), seed=st.integers(0, 2**16), data=st.data())
    def test_stacked_probe_equals_partition_pair(self, kind, counts, dim, seed, data):
        rng = np.random.default_rng(seed)
        parts = [
            DevicePartition(i, rng.standard_normal((n, dim)), rng.standard_normal(n))
            for i, n in enumerate(counts)
        ]
        if kind == SQUARED_HINGE_SVM:
            for p in parts:
                p.y = np.sign(p.y) + (p.y == 0)
        model = LossModel(kind, reg=0.3, dim=dim)
        stacked = losses.DeviceData(model, [parts[i : i + 2] for i in range(0, len(parts), 2)])
        device = data.draw(st.integers(0, len(parts) - 1), label="device")
        # batch_size == n_points takes every point, undrawn
        batch = data.draw(st.integers(1, counts[device]), label="batch_size")
        w = rng.standard_normal(dim)
        gen_stacked, gen_pair = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        s2, g = control.estimate_sigma(model, stacked, device, w, batch, gen_stacked)
        # oracle: two mini-batch gradients on the device's own partition
        own = one_device(model, parts[device])
        g1 = local_sgd(model, w, own, batch, gen_pair)
        g2 = local_sgd(model, w, own, batch, gen_pair)
        diff = g1 - g2
        assert s2 == float(diff @ diff / 2.0)
        np.testing.assert_array_equal(g, (g1 + g2) / 2.0)
        assert gen_stacked.random() == gen_pair.random()

    def test_server_takes_max(self):
        assert control.server_sigma([0.1, 0.7, 0.3]) == 0.7


class TestFitPredictor:
    def test_exact_linear_history_recovered(self):
        ups = [0.0]
        for _ in range(6):
            ups.append(2.0 * ups[-1] + 1.0)
        coeffs = control.fit_predictor(ups, [0] * 6)
        assert coeffs.A == pytest.approx(2.0, abs=1e-9)
        assert coeffs.B == pytest.approx(1.0, abs=1e-9)
        assert not coeffs.idle_fallback

    def test_single_regime_gets_identity_fallback(self):
        ups = [0.0, 1.0, 3.0, 7.0]
        coeffs = control.fit_predictor(ups, [0, 0, 0])
        assert coeffs.active_fallback
        assert (coeffs.a, coeffs.b) == (1.0, 0.0)

    def test_noisy_history_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        ups = [0.0]
        gammas = []
        for i in range(20):
            g = int(rng.integers(0, 2))
            gammas.append(g)
            slope, inter = (1.5, 0.2) if g == 0 else (0.6, 0.05)
            ups.append(slope * ups[-1] + inter + rng.normal(0, 0.01))
        coeffs = control.fit_predictor(ups, gammas)
        for regime, (slope_attr, inter_attr) in ((0, ("A", "B")), (1, ("a", "b"))):
            xs = [ups[i] for i, g in enumerate(gammas) if (g == 0) == (regime == 0)]
            ys = [ups[i + 1] for i, g in enumerate(gammas) if (g == 0) == (regime == 0)]
            design = np.column_stack([xs, np.ones(len(xs))])
            sol, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
            assert getattr(coeffs, slope_attr) == pytest.approx(sol[0], rel=1e-9)
            assert getattr(coeffs, inter_attr) == pytest.approx(sol[1], rel=1e-9)


class TestGammaRounds:
    def test_log_ratio_example(self):
        # eta*phi/(sqrt(s)*ups) = 0.1 with lambda = 0.5 -> ceil(3.32) = 4
        assert control.gamma_rounds(0.1, 1.0, 1, 1.0, 0.5) == 4

    def test_below_threshold_no_rounds(self):
        assert control.gamma_rounds(1.0, 1.0, 4, 0.4, 0.5) == 0
        assert control.gamma_rounds(1.0, 1.0, 4, 0.0, 0.5) == 0

    def test_minimality_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            eta = float(rng.uniform(0.001, 1.0))
            phi = float(rng.uniform(0.01, 10.0))
            s_c = int(rng.integers(1, 9))
            ups = float(rng.uniform(0.0, 20.0))
            lam = float(rng.uniform(0.05, 0.99))
            g = control.gamma_rounds(eta, phi, s_c, ups, lam)
            scale = math.sqrt(s_c) * ups
            assert lam**g * scale <= eta * phi or g == 0 and scale <= eta * phi
            if g >= 1:
                assert lam ** (g - 1) * scale > eta * phi

    def test_cap_applies(self):
        assert control.gamma_rounds(1e-9, 1.0, 4, 10.0, 0.99, gamma_max=7) == 7

    def test_invalid_lambda_rejected(self):
        for lam in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                control.gamma_rounds(0.1, 1.0, 2, 1.0, lam)


def make_cluster(index, size=3, lam=0.6):
    return ClusterSpec(
        index=index,
        positions=np.zeros((size, 2)),
        adjacency=np.ones((size, size), dtype=bool) & ~np.eye(size, dtype=bool),
        V=np.eye(size),
        lambda_c=lam,
        link_outage=np.zeros((size, size)),
    )


class TestRoundRule:
    """round_rule against one divergence and one gamma_rounds call per cluster."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        gamma_max=st.one_of(st.none(), st.integers(1, 40)),
        exact=st.booleans(),
    )
    def test_equals_per_cluster_loop(self, seed, sizes, gamma_max, exact):
        rng = np.random.default_rng(seed)
        divergence = consensus.divergence_exact if exact else consensus.divergence_estimate
        clusters = [
            make_cluster(c, size=size, lam=float(rng.uniform(0.05, 0.95)))
            for c, size in enumerate(sizes)
        ]
        dim = int(rng.integers(1, 5))
        W = rng.standard_normal((sum(sizes), dim)) * 10.0 ** rng.uniform(-3, 1)
        blocks = [
            (members, W[rows].reshape(len(members), size, dim))
            for members, rows, size in losses.size_groups(sizes)
        ]
        eta, phi = float(10.0 ** rng.uniform(-3, 0)), float(10.0 ** rng.uniform(-2, 1))

        upsilon, gammas = control.round_rule(clusters, blocks, divergence, eta, phi, gamma_max)
        ends = np.cumsum(sizes)
        for c, spec in enumerate(clusters):
            ups_c = divergence(W[ends[c] - spec.size : ends[c]])
            assert upsilon[c] == ups_c
            assert gammas[c] == control.gamma_rounds(eta, phi, spec.size, ups_c, spec.lambda_c, gamma_max)


class TestSolveP:
    SCHED = StepSchedule(kind="diminishing", gamma=2.0, alpha=30.0)

    def clusters(self):
        return [make_cluster(i) for i in range(3)]

    def idle_growth_coeffs(self):
        return [PredictorCoeffs(A=1.0, B=0.05, a=0.5, b=0.0)] * 3

    def test_progress_only_prefers_shortest(self):
        cost = CostParams(c1=0.0, c2=0.0, c3=1.0)
        tau = control.solve_P(0, self.idle_growth_coeffs(), self.clusters(), self.SCHED, 1.0, cost, 15, 100)
        assert tau == 1

    def test_free_progress_amortizes_uplink(self):
        cost = CostParams(c1=1.0, c2=1.0, c3=0.0)
        quiet = [PredictorCoeffs(A=0.0, B=0.0, a=0.0, b=0.0)] * 3
        tau = control.solve_P(0, quiet, self.clusters(), self.SCHED, 1.0, cost, 15, 100)
        assert tau == 15

    def test_range_respects_horizon(self):
        cost = CostParams(c1=1.0, c2=1.0, c3=0.0)
        quiet = [PredictorCoeffs(A=0.0, B=0.0, a=0.0, b=0.0)] * 3
        assert control.solve_P(95, quiet, self.clusters(), self.SCHED, 1.0, cost, 15, 100) == 5
        with pytest.raises(ValueError):
            control.solve_P(100, quiet, self.clusters(), self.SCHED, 1.0, cost, 15, 100)

    def test_monotone_in_weights(self):
        # tau non-decreasing in c1 and c2, non-increasing in c3 over a 3x3x3 grid
        taus = {}
        for c1, c2, c3 in itertools.product((1e-3, 1e-1, 10.0), repeat=3):
            cost = CostParams(c1=c1, c2=c2, c3=c3)
            taus[(c1, c2, c3)] = control.solve_P(
                0, self.idle_growth_coeffs(), self.clusters(), self.SCHED, 0.5, cost, 12, 100
            )
        levels = (1e-3, 1e-1, 10.0)
        for a, b in zip(levels, levels[1:]):
            for x, y in itertools.product(levels, repeat=2):
                assert taus[(b, x, y)] >= taus[(a, x, y)]
                assert taus[(x, b, y)] >= taus[(x, a, y)]
                assert taus[(x, y, b)] <= taus[(x, y, a)]


def oracle_interval_cost(t_km1, tau, coeffs_by_cluster, clusters, sched, phi, cost, gamma_max):
    """Objective of one interval length, simulating the predictor from t_km1 on its own."""
    energy = cost.e_glob
    delay = cost.delta_glob
    upsilon = [0.0] * len(clusters)
    last_gamma = [0] * len(clusters)
    for t in range(t_km1, t_km1 + tau + 1):
        if t > t_km1:
            for c, coeffs in enumerate(coeffs_by_cluster):
                if last_gamma[c] == 0:
                    upsilon[c] = coeffs.A * upsilon[c] + coeffs.B
                else:
                    upsilon[c] = coeffs.a * upsilon[c] + coeffs.b
                upsilon[c] = max(0.0, upsilon[c])
        for c, spec in enumerate(clusters):
            g = control.gamma_rounds(
                sched.eta(t), phi, spec.size, upsilon[c], spec.lambda_c, gamma_max
            )
            last_gamma[c] = g
            energy += g * spec.size * cost.e_d2d
            delay += g * cost.delta_d2d
    return sum(cost.interval_terms(energy, delay, t_km1, tau, sched.alpha))


class TestOnePassLineSearch:
    """The one-pass line search against one predictor simulation per candidate length."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        t_km1=st.integers(0, 300),
        tau_max=st.integers(1, 30),
        n_clusters=st.integers(1, 5),
        gamma_max=st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_objectives_and_choice_match_per_length_oracle(
        self, seed, t_km1, tau_max, n_clusters, gamma_max
    ):
        rng = np.random.default_rng(seed)
        clusters = [
            make_cluster(c, size=int(rng.integers(1, 7)), lam=float(rng.uniform(0.05, 0.95)))
            for c in range(n_clusters)
        ]
        coeffs = [
            PredictorCoeffs(
                A=float(rng.uniform(0.5, 1.5)), B=float(rng.uniform(-0.1, 0.4)),
                a=float(rng.uniform(0.0, 1.0)), b=float(rng.uniform(-0.1, 0.1)),
            )
            for _ in range(n_clusters)
        ]
        sched = StepSchedule(kind="diminishing", gamma=float(rng.uniform(0.5, 5.0)),
                             alpha=float(rng.uniform(1.0, 60.0)))
        phi = float(rng.uniform(0.01, 2.0))
        cost = CostParams(
            e_d2d=float(rng.uniform(0.0, 0.2)), delta_d2d=float(rng.uniform(0.0, 0.2)),
            c1=float(10.0 ** rng.uniform(-3, 2)), c2=float(10.0 ** rng.uniform(-3, 3)),
            c3=float(10.0 ** rng.uniform(-2, 4)),
        )
        T = t_km1 + int(rng.integers(1, 2 * tau_max + 1))
        hi = min(tau_max, T - t_km1)

        values = control.predict_interval_cost(
            t_km1, hi, coeffs, clusters, sched, phi, cost, gamma_max
        )
        oracle = [
            oracle_interval_cost(t_km1, tau, coeffs, clusters, sched, phi, cost, gamma_max)
            for tau in range(1, hi + 1)
        ]
        assert values == oracle
        best_tau, best_val = 1, math.inf
        for tau, val in enumerate(oracle, start=1):
            if val < best_val - 1e-15:
                best_tau, best_val = tau, val
        chosen = control.solve_P(t_km1, coeffs, clusters, sched, phi, cost, tau_max, T, gamma_max)
        assert chosen == best_tau


class TestRunAdaptive:
    # 9 SVM devices of 4 or 5 points: at sigma_batch 4 a probed 4-point device
    # reports its exact gradient, a 5-point one the mean of two mini-batches
    PROBE_MIX = control.AdaptiveConfig(T=30, tau_max=6, tau1=3, zeta_frac=0.02, sigma_batch=4)

    @staticmethod
    def probe_mix_task():
        return build_small_task(
            mode="iid", n_clusters=3, cluster_size=3, m=3, n_labels=2, per_label=20, reg=2.0,
            kind=SQUARED_HINGE_SVM, batch_size=2,
        )

    def test_probe_mix_trace_bytes_are_pinned(self, tmp_path):
        trace, _ = control.run_adaptive(self.probe_mix_task(), self.PROBE_MIX, seed=5)
        trace.to_csv(tmp_path / "trace.csv")
        trace.control_to_csv(tmp_path / "control.csv")
        # a change to the probes' draws or to the controller's arithmetic,
        # down to the last bit of phi, changes these bytes
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "control.csv")
        }
        assert digests == {
            "trace.csv": "5f15ce70fe275156b282e7abad7941a7fb5f423fa7dac587a690aaa4b774b10c",
            "control.csv": "4481411631c77dcc6a3c2fc06f5af6fa91c51a55f62267e9ba1914d24ac61f12",
        }

    def test_probes_read_the_task_data(self, monkeypatch):
        task = self.probe_mix_task()
        calls = {"DeviceData": 0, "estimate_sigma": 0, "grad_full": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name if name != "__init__" else "DeviceData"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(losses.DeviceData, "__init__")
        counting(control, "estimate_sigma")
        counting(losses, "grad_full")
        control.run_adaptive(task, self.PROBE_MIX, seed=5)
        # both probe branches ran, and neither stacked any data of its own
        assert calls["estimate_sigma"] > 0 and calls["grad_full"] > 0
        assert calls["DeviceData"] == 0

    def test_homogeneous_data_keeps_consensus_idle(self):
        task = build_small_task(mode="iid", per_label=200, reg=2.0)
        cfg = control.AdaptiveConfig(T=40, tau_max=8, tau1=4, zeta_frac=0.02, sigma_batch=16)
        trace, state = control.run_adaptive(task, cfg, seed=1)
        # a few rounds may fire before the estimates settle; after that the
        # divergence stays below the trigger threshold on homogeneous data
        assert trace.gamma_total[20:].sum() == 0
        assert trace.gamma_total.mean() / len(task.clusters) < 0.15

    def test_consensus_error_target_met(self):
        task = build_small_task(mode="extreme", per_label=200, reg=1.5)
        cfg = control.AdaptiveConfig(T=60, tau_max=8, tau1=4, zeta_frac=0.02, sigma_batch=16,
                                     xi_boost=1.5)
        trace, state = control.run_adaptive(task, cfg, seed=2)
        sched = state.step_schedule()
        etas = np.array([sched.eta(t) for t in trace.t])
        ok = trace.eps_rms <= etas * state.phi + 1e-12
        assert ok.mean() >= 0.95

    def test_zero_gradient_probes_still_run(self):
        # seed 3 samples only devices whose targets are zero at w0 = 0, so every
        # initial probe vanishes; the auto target must still yield phi > 0
        task = build_small_task(
            mode="extreme", n_clusters=3, cluster_size=3, per_label=100, reg=1.5,
            batch_size=8,
        )
        cfg = control.AdaptiveConfig(T=20, tau_max=8, tau1=4, zeta_frac=0.02, sigma_batch=8)
        trace, state = control.run_adaptive(task, cfg, seed=3)
        assert state.phi > 0
        assert len(trace) == 20

    def test_control_rows_record_decisions(self):
        task = build_small_task(mode="extreme", per_label=100, reg=1.5)
        cfg = control.AdaptiveConfig(T=30, tau_max=6, tau1=3, zeta_frac=0.02, sigma_batch=8)
        trace, state = control.run_adaptive(task, cfg, seed=3)
        assert trace.control_rows
        for row in trace.control_rows:
            for key in ("tau_k", "alpha", "phi", "delta_prime", "sigma2", "nu", "gamma_by_cluster"):
                assert key in row

    def test_plans_each_interval_on_its_refreshed_topology(self, monkeypatch):
        task = build_small_task(mode="extreme", per_label=100, reg=1.5)
        fresh = {}

        def refresh(k):
            fresh[k] = topology.build_network(4, 3, 50.0, topology.ChannelParams(), seed=100 + k)
            return fresh[k]

        plans = []
        solve_P = control.solve_P

        def spy(t_km1, coeffs, clusters, *args, **kwargs):
            plans.append(clusters)
            return solve_P(t_km1, coeffs, clusters, *args, **kwargs)

        monkeypatch.setattr(control, "solve_P", spy)
        cfg = control.AdaptiveConfig(T=30, tau_max=6, tau1=3, zeta_frac=0.02, sigma_batch=8)
        trace, _ = control.run_adaptive(task, cfg, seed=3, topology_refresh=refresh)
        # every aggregation before the horizon refreshes, then plans the next interval
        assert len(plans) == len(trace.boundaries) - 1 == len(fresh)
        for k, clusters in enumerate(plans, start=1):
            assert [id(spec) for spec in clusters] == [id(spec) for spec in fresh[k + 1]]

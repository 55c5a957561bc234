"""Adaptive machinery: alpha selection, feasibility, phi cap, estimators,
the divergence predictor, the round rule, and the interval line search."""

import dataclasses
import functools
import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tthf import bounds, consensus, control, losses, topology, trainer
from tthf.control import PredictorCoeffs
from tthf.costs import CostParams
from tthf.losses import LINEAR_REGRESSION, SQUARED_HINGE_SVM, DevicePartition, LossModel
from tthf.schedules import StepSchedule
from tthf.seeding import generators
from tthf.topology import ClusterSpec

from conftest import (
    build_small_task, fit_predictor_oracle, local_grad, local_sgd, one_device, scalar_gamma_rounds,
    startup_oracle,
)

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

    def test_an_alpha_above_the_cap_is_never_returned(self):
        # the uncapped answer, 7.1932, lies in the first doubled bracket, past a cap of 6.6
        assert control.select_alpha(0.5, 1.0, 3.0, 0.01, tau=2) == pytest.approx(7.1932, abs=1e-4)
        with pytest.raises(control.InfeasibleError, match=r"alpha <= 6\.6"):
            control.select_alpha(0.5, 1.0, 3.0, 0.01, tau=2, cap=6.6)

    def test_an_admissible_alpha_below_the_cap_is_found(self):
        # the doubling steps past a cap of 49.9, below which 49.3289 is admissible
        uncapped = control.select_alpha(0.5, 1.0, 3.0, 0.001, tau=20)
        alpha = control.select_alpha(0.5, 1.0, 3.0, 0.001, tau=20, cap=49.9)
        assert alpha <= 49.9 and alpha == pytest.approx(uncapped, abs=1e-6) == pytest.approx(49.3289, abs=1e-4)
        assert bounds.omega_max_value(3.0, alpha, 0.5, 1.0, 20) > 0.001

    def test_alpha_min_above_the_cap_raises(self):
        alpha_min = bounds.alpha_min_value(GAMMA, MU, BETA, 0.0)
        assert control.select_alpha(MU, BETA, GAMMA, 0.0, tau=10, cap=alpha_min) == alpha_min
        with pytest.raises(control.InfeasibleError, match="diversity too large"):
            control.select_alpha(MU, BETA, GAMMA, 0.0, tau=10, cap=alpha_min * 0.99)


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
        # three clusters in one call, each against its own lstsq fit
        rng = np.random.default_rng(4)
        ups = np.zeros((21, 3))
        gammas = rng.integers(0, 2, (20, 3))
        for i, g in enumerate(gammas):
            slope, inter = np.where(g == 0, 1.5, 0.6), np.where(g == 0, 0.2, 0.05)
            ups[i + 1] = slope * ups[i] + inter + rng.normal(0, 0.01, 3)
        coeffs = control.fit_predictor(ups, gammas)
        for c in range(3):
            for regime, (slope_attr, inter_attr) in ((0, ("A", "B")), (1, ("a", "b"))):
                xs = [ups[i, c] for i, g in enumerate(gammas[:, c]) if (g == 0) == (regime == 0)]
                ys = [ups[i + 1, c] for i, g in enumerate(gammas[:, c]) if (g == 0) == (regime == 0)]
                design = np.column_stack([xs, np.ones(len(xs))])
                sol, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
                assert getattr(coeffs, slope_attr)[c] == pytest.approx(sol[0], rel=1e-9)
                assert getattr(coeffs, inter_attr)[c] == pytest.approx(sol[1], rel=1e-9)

    def test_one_device_cluster_history_fits_zero_lines(self):
        # a one-device cluster never diverges: both branch designs are all zero
        coeffs = control.fit_predictor(np.zeros((7, 2)), [[0, 3]] * 6)
        np.testing.assert_array_equal([coeffs.A, coeffs.B], [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal([coeffs.a, coeffs.b], [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal([coeffs.idle_fallback, coeffs.active_fallback],
                                      [[False, True], [True, False]])

    def test_repeated_x_takes_the_minimum_norm_line(self):
        # x = 1 at every active transition: x*slope + offset = 1 has many
        # solutions, and lstsq's (and pinv's) is the shortest, (0.5, 0.5)
        coeffs = control.fit_predictor([0.0, 1.0, 1.0, 1.0, 1.0], [0, 2, 2, 2])
        assert (coeffs.a, coeffs.b) == pytest.approx((0.5, 0.5), rel=1e-12)
        assert coeffs.idle_fallback and not coeffs.active_fallback

    def test_one_step_interval_falls_back_on_both_branches(self):
        coeffs = control.fit_predictor([[0.0, 0.0, 0.0], [0.4, 0.0, 2.0]], [[0, 1, 5]])
        for line in ([coeffs.A, coeffs.B], [coeffs.a, coeffs.b]):
            np.testing.assert_array_equal(line, [[1.0] * 3, [0.0] * 3])
        assert coeffs.idle_fallback.all() and coeffs.active_fallback.all()

    def test_history_lengths_must_match(self):
        with pytest.raises(ValueError, match="one more divergence sample"):
            control.fit_predictor(np.zeros((4, 2)), np.zeros((4, 2), dtype=int))


def assert_fit_equals_oracle(coeffs, ups, gammas):
    """Every cluster's lines within rtol 1e-9 of fit_predictor_oracle, and every flag equal.

    A coefficient that is 0 in exact arithmetic comes out as rounding noise of
    either fit, so each line also allows 1e-9 of its largest coefficient.
    """
    for c in range(ups.shape[1]):
        A, B, a, b, idle_fallback, active_fallback = fit_predictor_oracle(ups[:, c], gammas[:, c])
        assert bool(coeffs.idle_fallback[c]) is idle_fallback
        assert bool(coeffs.active_fallback[c]) is active_fallback
        for got, expected in (((coeffs.A[c], coeffs.B[c]), (A, B)), ((coeffs.a[c], coeffs.b[c]), (a, b))):
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9 * max(map(abs, expected)))


@pytest.mark.oracle
class TestFitPredictorOracle:
    """The one-call fit of all clusters, once per aggregation, against
    conftest.fit_predictor_oracle's lstsq fit per cluster and branch."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.integers(1, 40),
        n_clusters=st.integers(1, 25),
        active_share=st.floats(0.0, 1.0),
        zero_share=st.floats(0.0, 0.5),
        shape=st.sampled_from(["mixed", "all-idle", "all-active", "one-transition"]),
    )
    def test_equals_per_cluster_lstsq(self, seed, tau, n_clusters, active_share, zero_share, shape):
        rng = np.random.default_rng(seed)
        ups = np.abs(rng.standard_normal((tau + 1, n_clusters))) * 10.0 ** rng.uniform(-6, 3, n_clusters)
        ups[rng.random(ups.shape) < zero_share] = 0.0
        ups[0] = 0.0
        gammas = (rng.random((tau, n_clusters)) < active_share) * rng.integers(1, 6, (tau, n_clusters))
        if shape == "all-idle":
            gammas[:] = 0
        elif shape == "all-active":
            gammas[:] = rng.integers(1, 6, gammas.shape)
        elif shape == "one-transition":
            # one cluster-wide active step: each cluster's active branch has one transition
            gammas[:] = 0
            gammas[rng.integers(0, tau)] = 2
        assert_fit_equals_oracle(control.fit_predictor(ups, gammas), ups, gammas)

    def test_one_fit_per_aggregation_on_run_histories(self, monkeypatch):
        # the histories a run logs: idle stretches, flooding bursts, short intervals
        histories = []
        fit = control.fit_predictor

        def recording(ups, gammas):
            histories.append((ups.copy(), gammas.copy()))
            return fit(ups, gammas)

        monkeypatch.setattr(control, "fit_predictor", recording)
        task = build_small_task(mode="extreme", per_label=100, reg=1.5)
        cfg = control.AdaptiveConfig(T=30, tau_max=6, tau1=3, zeta_frac=0.02, sigma_batch=8)
        trace, _ = control.run_adaptive(task, cfg, seed=3)
        assert len(histories) == len(trace.boundaries) > 1
        for ups, gammas in histories:
            assert ups.shape == (len(gammas) + 1, len(task.clusters))
            assert_fit_equals_oracle(fit(ups, gammas), ups, gammas)


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
        for lam in (1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                control.gamma_rounds(0.1, 1.0, 2, 1.0, lam)

    def test_zero_lambda_takes_one_round_when_active(self):
        # one round brings a cluster of lambda 0 to consensus: a one-device
        # cluster, or a complete graph mixed at step 1/s
        assert control.gamma_rounds(0.1, 1.0, 2, 1.0, 0.0) == 1
        assert control.gamma_rounds(0.1, 1.0, 2, 0.0, 0.0) == 0
        assert control.gamma_rounds(0.1, 1.0, 1, 0.05, 0.0) == 0


def boundary_clusters(rng, n, target):
    """n random clusters, most of them at or next to a regime boundary of the target.

    Returns (sizes, upsilons, lambdas, at_boundary), the upsilons and
    at_boundary from boundary_upsilons.
    """
    sizes = rng.integers(1, 9, n)
    lams = rng.uniform(0.05, 0.995, n)
    ups, at_boundary = boundary_upsilons(rng, sizes, lams, target)
    return sizes, ups, lams, at_boundary


def boundary_upsilons(rng, sizes, lams, target, max_count=600):
    """Upsilons that put most of these clusters at or next to a regime boundary of the target.

    Cluster c gets a round count k_c of at most max_count and an upsilon for
    which Python's lam ** k * (sqrt(s) * upsilon), the scalar rule's guard,
    equals the target exactly; where a few ulps of upsilon find no such value
    it stays near it. A found upsilon then moves by -1, 0 or +1 ulp, so the
    guard's product sits on the target or next to it; np.power, which mostly
    rounds a power down from Python's, decides such a count wrongly now and then.
    Returns (upsilons, at_boundary).
    """
    n = len(sizes)
    ups = np.empty(n)
    at_boundary = np.zeros(n, dtype=bool)
    for c in range(n):
        lam, root = float(lams[c]), math.sqrt(int(sizes[c]))
        # keep lam ** k far from underflow; counts past 127, 255 and 511 double the power table
        k = int(rng.integers(0, min(max_count, int(200 / -math.log10(lam))) + 1))
        u = target / (lam**k * root)
        for _ in range(8):
            cert = lam**k * (root * u)
            if cert == target:
                at_boundary[c] = True
                u = math.nextafter(u, (-math.inf, u, math.inf)[int(rng.integers(0, 3))])
                break
            u = math.nextafter(u, math.inf if cert < target else -math.inf)
        ups[c] = u
    return ups, at_boundary


@pytest.mark.oracle
class TestArrayRoundRuleOracle:
    """The array round rule against the scalar rule, cluster by cluster, bit for bit,
    lambda = 0 included. Counts and caps reach 600, past the 128-, 256- and
    512-wide power tables that the rule's search doubles through; calls that
    share one epoch's LambdaPowers, widened by earlier calls and read by later
    ones with caps below its width, equal calls on fresh tables and the scalar rule."""

    @staticmethod
    def scalar_rounds(eta, phi, sizes, ups, lams, gamma_max):
        return [
            scalar_gamma_rounds(eta, phi, int(s), float(u), float(lam), gamma_max)
            for s, u, lam in zip(sizes, ups, lams)
        ]

    def test_boundary_inputs_match_scalar_rule(self):
        # np.power in place of the table's Python ** moves about one of these counts in 90
        rng = np.random.default_rng(12)
        boundary = 0
        for trial in range(100):
            eta = float(10.0 ** rng.uniform(-4, 0))
            sizes, ups, lams, at_boundary = boundary_clusters(rng, 40, eta)
            gamma_max = None if trial % 2 else int(rng.integers(0, 600))
            got = control.gamma_rounds(eta, 1.0, sizes, ups, lams, gamma_max)
            np.testing.assert_array_equal(got, self.scalar_rounds(eta, 1.0, sizes, ups, lams, gamma_max))
            boundary += int(at_boundary.sum())
        assert boundary >= 2000

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        gamma_max=st.one_of(st.none(), st.integers(0, 600)),
        zero_share=st.floats(0.0, 1.0),
        off_share=st.floats(0.0, 1.0),
    )
    def test_equals_scalar_rule_elementwise(self, seed, n, gamma_max, zero_share, off_share):
        rng = np.random.default_rng(seed)
        eta, phi = float(10.0 ** rng.uniform(-4, 0)), float(10.0 ** rng.uniform(-2, 1))
        sizes, ups, lams, _ = boundary_clusters(rng, n, eta * phi)
        off = rng.random(n) < off_share
        ups[off] *= 10.0 ** rng.uniform(-3, 3, int(off.sum()))
        ups[rng.random(n) < zero_share] = 0.0
        got = control.gamma_rounds(eta, phi, sizes, ups, lams, gamma_max)
        assert got.dtype.kind == "i" and got.shape == (n,)
        np.testing.assert_array_equal(got, self.scalar_rounds(eta, phi, sizes, ups, lams, gamma_max))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        gamma_max=st.one_of(st.none(), st.integers(0, 600)),
        zero_lambda_share=st.floats(0.0, 1.0),
        zero_share=st.floats(0.0, 1.0),
    )
    def test_zero_lambdas_equal_scalar_rule(self, seed, n, gamma_max, zero_lambda_share, zero_share):
        # a cluster of lambda 0 (one device, or a complete graph at step 1/s)
        # needs one round whenever it is active
        rng = np.random.default_rng(seed)
        eta, phi = float(10.0 ** rng.uniform(-4, 0)), float(10.0 ** rng.uniform(-2, 1))
        sizes, ups, lams, _ = boundary_clusters(rng, n, eta * phi)
        lams[rng.random(n) < zero_lambda_share] = 0.0
        ups[rng.random(n) < zero_share] = 0.0
        got = control.gamma_rounds(eta, phi, sizes, ups, lams, gamma_max)
        expected = self.scalar_rounds(eta, phi, sizes, ups, lams, gamma_max)
        np.testing.assert_array_equal(got, expected)
        active = (lams == 0.0) & (np.sqrt(sizes) * ups > eta * phi)
        np.testing.assert_array_equal(got[active], 1 if gamma_max is None else min(1, gamma_max))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        calls=st.lists(
            st.tuples(
                st.sampled_from([100, 200, 400, 600]), st.one_of(st.none(), st.integers(0, 600)),
                st.floats(0.0, 1.0),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_a_shared_epoch_table_equals_fresh_tables(self, seed, n, calls):
        # the calls share one LambdaPowers, as the round rule of a D2D epoch does:
        # counts past 128, 256 and 512 widen its table, and later calls read the
        # wide table, some with a gamma_max below its width
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, n)
        lams = rng.uniform(0.05, 0.995, n)
        shared = trainer.LambdaPowers(lams)
        for max_count, gamma_max, zero_share in calls:
            eta, phi = float(10.0 ** rng.uniform(-4, 0)), float(10.0 ** rng.uniform(-2, 1))
            ups, _ = boundary_upsilons(rng, sizes, lams, eta * phi, max_count)
            ups[rng.random(n) < zero_share] = 0.0
            width, fresh = shared.table.shape[1], trainer.LambdaPowers(lams)
            got = control.gamma_rounds(eta, phi, sizes, ups, shared, gamma_max)
            np.testing.assert_array_equal(got, control.gamma_rounds(eta, phi, sizes, ups, fresh, gamma_max))
            np.testing.assert_array_equal(got, self.scalar_rounds(eta, phi, sizes, ups, lams, gamma_max))
            # the shared table is the widest that either search has needed, and read-only
            assert shared.table.shape[1] == max(width, fresh.table.shape[1])
            assert not shared.table.flags.writeable

    def test_scalar_inputs_give_an_int(self):
        for ups in (0.0, 0.3, 40.0):
            got = control.gamma_rounds(0.05, 2.0, 4, ups, 0.7, 30)
            assert type(got) is int and got == scalar_gamma_rounds(0.05, 2.0, 4, ups, 0.7, 30)

    def test_inputs_broadcast(self):
        ups = np.array([[0.0, 0.5, 3.0], [9.0, 0.01, 1e3]])
        got = control.gamma_rounds(0.01, 1.0, 5, ups, 0.8)
        assert got.shape == (2, 3)
        assert got.tolist() == [[scalar_gamma_rounds(0.01, 1.0, 5, u, 0.8) for u in row] for row in ups.tolist()]

    def test_zero_target_takes_the_cap_or_raises(self):
        ups = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(control.gamma_rounds(0.0, 1.0, [3, 3, 3], ups, [0.5] * 3, 9), [0, 9, 9])
        with pytest.raises(ValueError, match="target must be positive"):
            control.gamma_rounds(0.0, 1.0, [3, 3, 3], ups, [0.5] * 3)

    def test_invalid_inputs_rejected_in_any_entry(self):
        for lam in (1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="lambda_c"):
                control.gamma_rounds(0.1, 1.0, [2, 2], [1.0, 1.0], [0.5, lam])
        with pytest.raises(ValueError, match="non-negative"):
            control.gamma_rounds(0.1, 1.0, [2, 2], [1.0, -1e-9], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            control.gamma_rounds(0.1, 1.0, [2, 2], [1.0, np.inf], [0.5, 0.5])

    @pytest.mark.parametrize("size", [0, -1, 0.5, np.nan])
    def test_size_below_one_or_nan_rejected(self, size):
        # such a size took no rounds: a scale of 0 or NaN never exceeds the
        # target. It is rejected before sqrt, which warns on -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="s_c must be at least 1"):
                control.gamma_rounds(0.1, 1.0, size, 1.0, 0.5)
            with pytest.raises(ValueError, match="s_c must be at least 1"):
                control.gamma_rounds(0.1, 1.0, [2, size], [1.0, 1.0], [0.5, 0.5])


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
    """round_rule against one divergence and one scalar rule call per cluster."""

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

        upsilon, gammas = control.round_rule(
            trainer.d2d_epoch(clusters), blocks, divergence, eta, phi, gamma_max
        )
        ends = np.cumsum(sizes)
        for c, spec in enumerate(clusters):
            ups_c = divergence(W[ends[c] - spec.size : ends[c]])
            assert upsilon[c] == ups_c
            assert gammas[c] == scalar_gamma_rounds(eta, phi, spec.size, ups_c, spec.lambda_c, gamma_max)


class TestSolveP:
    SCHED = StepSchedule(kind="diminishing", gamma=2.0, alpha=30.0)

    def epoch(self):
        return trainer.d2d_epoch([make_cluster(i) for i in range(3)])

    def idle_growth_coeffs(self):
        return PredictorCoeffs(A=1.0, B=0.05, a=0.5, b=0.0)

    def test_progress_only_prefers_shortest(self):
        cost = CostParams(c1=0.0, c2=0.0, c3=1.0)
        tau = control.solve_P(0, self.idle_growth_coeffs(), self.epoch(), self.SCHED, 1.0, cost, 15, 100)
        assert tau == 1

    def test_free_progress_amortizes_uplink(self):
        cost = CostParams(c1=1.0, c2=1.0, c3=0.0)
        quiet = PredictorCoeffs(A=0.0, B=0.0, a=0.0, b=0.0)
        tau = control.solve_P(0, quiet, self.epoch(), self.SCHED, 1.0, cost, 15, 100)
        assert tau == 15

    def test_range_respects_horizon(self):
        cost = CostParams(c1=1.0, c2=1.0, c3=0.0)
        quiet = PredictorCoeffs(A=0.0, B=0.0, a=0.0, b=0.0)
        assert control.solve_P(95, quiet, self.epoch(), self.SCHED, 1.0, cost, 15, 100) == 5
        with pytest.raises(ValueError):
            control.solve_P(100, quiet, self.epoch(), self.SCHED, 1.0, cost, 15, 100)

    def test_monotone_in_weights(self):
        # tau non-decreasing in c1 and c2, non-increasing in c3 over a 3x3x3 grid
        taus = {}
        for c1, c2, c3 in itertools.product((1e-3, 1e-1, 10.0), repeat=3):
            cost = CostParams(c1=c1, c2=c2, c3=c3)
            taus[(c1, c2, c3)] = control.solve_P(
                0, self.idle_growth_coeffs(), self.epoch(), self.SCHED, 0.5, cost, 12, 100
            )
        levels = (1e-3, 1e-1, 10.0)
        for a, b in zip(levels, levels[1:]):
            for x, y in itertools.product(levels, repeat=2):
                assert taus[(b, x, y)] >= taus[(a, x, y)]
                assert taus[(x, b, y)] >= taus[(x, a, y)]
                assert taus[(x, y, b)] <= taus[(x, y, a)]


def oracle_interval_cost(t_km1, tau, coeffs, clusters, sched, phi, cost, gamma_max):
    """Objective of one interval length, simulating the predictor from t_km1 on its own,
    cluster by cluster."""
    energy = cost.e_glob
    delay = cost.delta_glob
    upsilon = [0.0] * len(clusters)
    last_gamma = [0] * len(clusters)
    for t in range(t_km1, t_km1 + tau + 1):
        if t > t_km1:
            for c in range(len(clusters)):
                if last_gamma[c] == 0:
                    upsilon[c] = coeffs.A[c] * upsilon[c] + coeffs.B[c]
                else:
                    upsilon[c] = coeffs.a[c] * upsilon[c] + coeffs.b[c]
                upsilon[c] = max(0.0, upsilon[c])
        for c, spec in enumerate(clusters):
            g = scalar_gamma_rounds(sched.eta(t), phi, spec.size, upsilon[c], spec.lambda_c, gamma_max)
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
        coeffs = PredictorCoeffs(
            A=rng.uniform(0.5, 1.5, n_clusters), B=rng.uniform(-0.1, 0.4, n_clusters),
            a=rng.uniform(0.0, 1.0, n_clusters), b=rng.uniform(-0.1, 0.1, n_clusters),
        )
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

        epoch = trainer.d2d_epoch(clusters)
        values = control.predict_interval_cost(t_km1, hi, coeffs, epoch, sched, phi, cost, gamma_max)
        oracle = [
            oracle_interval_cost(t_km1, tau, coeffs, clusters, sched, phi, cost, gamma_max)
            for tau in range(1, hi + 1)
        ]
        assert values == oracle
        best_tau, best_val = 1, math.inf
        for tau, val in enumerate(oracle, start=1):
            if val < best_val - 1e-15:
                best_tau, best_val = tau, val
        chosen = control.solve_P(t_km1, coeffs, epoch, sched, phi, cost, tau_max, T, gamma_max)
        assert chosen == best_tau


class TestAdaptiveConfig:
    # T=0 ran an empty trace, T=2.5 and gamma_max=2.5 failed mid-run, and
    # gamma_max=True ran with a cap of 1
    @pytest.mark.parametrize("field, value, message", [
        ("T", 0, "T must be >= 1, got 0"),
        ("T", 2.5, "T must be an integer, got 2.5"),
        ("gamma_max", 2.5, "gamma_max must be an integer, got 2.5"),
        ("gamma_max", True, "gamma_max must be an integer, got True"),
    ])
    def test_a_horizon_or_round_cap_that_cannot_run_is_refused(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            control.AdaptiveConfig(**{field: value})


# regression on skewed data; an SVM whose 4-point devices report exact probe
# gradients at sigma_batch >= 4; and a regression whose probes all vanish for the
# seed-3 stream at sigma_batch 8, as every device it samples has zero targets
STARTUP_TASKS = (
    {},
    dict(mode="iid", n_clusters=3, cluster_size=3, m=3, n_labels=2, per_label=20, reg=2.0,
         kind=SQUARED_HINGE_SVM, batch_size=2),
    dict(mode="extreme", n_clusters=3, cluster_size=3, per_label=100, reg=1.5, batch_size=8),
)


@functools.cache
def startup_task(index):
    return build_small_task(**STARTUP_TASKS[index])


def start_outcome(start, task, config, rng):
    """Every ControlState field of start(task, config, rng) by repr, which tells
    each float's bits and type, or the type and message of what it raised."""
    try:
        state = start(task, config, rng)
    except Exception as error:
        return type(error), str(error)
    return [(field.name, repr(getattr(state, field.name))) for field in dataclasses.fields(state)]


class TestStart:
    # the start-up probes at w0 with run_adaptive's first stream
    @staticmethod
    def stream(seed):
        return generators([(seed, 0x1A17)])[0]

    @pytest.mark.oracle
    @given(
        task_index=st.integers(0, 2),
        seed=st.integers(0, 7),
        T=st.integers(1, 4000),
        tau_max=st.integers(1, 40),
        zeta_frac=st.floats(0.0, 0.1),
        gamma_over_mu=st.floats(1.1, 4.0),
        sigma_batch=st.integers(1, 40),
        alpha_cap=st.one_of(st.just(1e9), st.sampled_from([1e4, 300.0])),
        alpha_margin=st.floats(1.0, 3.0),
        # 2**-6 to 8 times the smallest certifiable target: targets that pass at
        # once, need T doubled, need xi loosened, or fail
        xi_boost=st.floats(-6.0, 3.0).map(math.exp2),
        given_xi=st.booleans(),
    )
    @example(task_index=2, seed=3, T=20, tau_max=8, zeta_frac=0.02, gamma_over_mu=2.0, sigma_batch=8,
             alpha_cap=1e9, alpha_margin=2.0, xi_boost=4.0, given_xi=False)  # every probe vanishes
    # alpha is near 1084: at T=10 boost 0.5 passes at the last check; at T=1000
    # it takes one doubling, and 0.15 three doublings and two loosenings
    @example(task_index=0, seed=1, T=10, tau_max=8, zeta_frac=0.02, gamma_over_mu=2.0, sigma_batch=8,
             alpha_cap=1e9, alpha_margin=2.0, xi_boost=0.5, given_xi=False)
    @example(task_index=0, seed=1, T=1000, tau_max=8, zeta_frac=0.02, gamma_over_mu=2.0, sigma_batch=8,
             alpha_cap=1e9, alpha_margin=2.0, xi_boost=0.5, given_xi=False)
    @example(task_index=0, seed=1, T=1000, tau_max=8, zeta_frac=0.02, gamma_over_mu=2.0, sigma_batch=8,
             alpha_cap=1e9, alpha_margin=2.0, xi_boost=0.15, given_xi=False)
    @example(task_index=0, seed=1, T=1000, tau_max=8, zeta_frac=0.02, gamma_over_mu=2.0, sigma_batch=8,
             alpha_cap=1e9, alpha_margin=2.0, xi_boost=0.15, given_xi=True)
    def test_equals_the_per_attempt_oracle(self, task_index, seed, given_xi, **fields):
        task = startup_task(task_index)
        config = control.AdaptiveConfig(**fields)
        if given_xi:
            # the auto target as given: at xi_boost 1 the oracle returns the
            # smallest certifiable xi, which only a failure leaves unknown
            try:
                smallest = startup_oracle(task, dataclasses.replace(config, xi_boost=1.0), self.stream(seed)).xi
            except control.InfeasibleError:
                smallest = 1.0
            config = dataclasses.replace(config, xi=config.xi_boost * smallest)
        rng, oracle_rng = self.stream(seed), self.stream(seed)
        assert start_outcome(control.start, task, config, rng) == start_outcome(
            startup_oracle, task, config, oracle_rng
        )
        # the same probes drew the same words
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_one_feasibility_check_per_run(self, monkeypatch):
        task = startup_task(0)
        # T doubles 3 times, then xi loosens 3 times: a check per attempt made 8
        config = control.AdaptiveConfig(T=10, tau_max=8, tau1=4, zeta_frac=0.02, sigma_batch=8, xi_boost=0.5)
        calls = []
        check = control.feasibility_check

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(control, "feasibility_check", counted)
        _, state = control.run_adaptive(task, config, seed=1)
        assert len(calls) == 1
        assert state.T == 80
        assert state.xi == (max(check(*calls[0]).terms) / (10 + state.alpha) * 0.5) * 1.25 * 1.25 * 1.25

    @pytest.mark.parametrize("xi", [None, 1e300], ids=["auto-xi", "given-xi"])
    def test_nan_terms_are_infeasible(self, monkeypatch, xi):
        nan = float("nan")
        monkeypatch.setattr(
            control, "feasibility_check", lambda *args: control.FeasibilityResult(False, nan, (nan, nan, nan), "noise")
        )
        config = control.AdaptiveConfig(T=20, tau_max=8, zeta_frac=0.02, sigma_batch=8, xi=xi)
        message = "loss target infeasible after relaxation (binding term: noise)"
        with pytest.raises(control.InfeasibleError, match=f"^{re.escape(message)}$"):
            control.start(startup_task(0), config, self.stream(1))


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
            "control.csv": "8727d33f5af67f63db6ef832ae5b4c5f14f65ce95c9aeff98434b98217454137",
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

    def test_horizon_below_tau1_records_one_interval_of_T_steps(self):
        task = build_small_task(mode="extreme", per_label=100, reg=1.5)
        cfg = control.AdaptiveConfig(T=3, tau_max=6, tau1=5, zeta_frac=0.02, sigma_batch=8)
        trace, state = control.run_adaptive(task, cfg, seed=3)
        assert state.T == 3
        assert [(row["t_k"], row["tau_k"]) for row in trace.control_rows] == [(3, 3)]

    def test_plans_each_interval_on_its_refreshed_topology(self, monkeypatch):
        task = build_small_task(mode="extreme", per_label=100, reg=1.5)
        fresh, plans = {}, []

        def refresh(k):
            fresh[k] = topology.build_network(4, 3, 50.0, topology.ChannelParams(), seed=100 + k)
            return fresh[k]

        solve_P = control.solve_P

        def spy(t_km1, coeffs, epoch, *args, **kwargs):
            plans.append(epoch)
            return solve_P(t_km1, coeffs, epoch, *args, **kwargs)

        monkeypatch.setattr(control, "solve_P", spy)
        cfg = control.AdaptiveConfig(T=30, tau_max=6, tau1=3, zeta_frac=0.02, sigma_batch=8)
        for lossy in (False, True):
            fresh.clear()
            del plans[:]
            epochs = trainer.D2DEpochs(task.clusters, lossy, refresh)
            trace, _ = control.run_adaptive(task, cfg, epochs=epochs, seed=3)
            # every aggregation before the horizon refreshes, then plans the next interval
            assert len(plans) == len(trace.boundaries) - 1 == len(fresh)
            for k, epoch in enumerate(plans, start=1):
                assert epoch.sizes.dtype == epoch.lambda_powers.lams.dtype == float
                assert epoch.sizes.tolist() == [spec.size for spec in fresh[k + 1]]
                assert epoch.lambda_powers.lams.tolist() == [spec.lambda_c for spec in fresh[k + 1]]
                # each cluster's gossip holds read-only copies of that spec's V and,
                # in a lossy run only, of its links' loss probabilities, bit for bit
                for gossip, spec in zip(epoch.gossip, fresh[k + 1], strict=True):
                    assert gossip.V.tobytes() == spec.V.tobytes() and gossip.V.shape == spec.V.shape
                    assert not gossip.V.flags.writeable
                    if lossy:
                        rows, cols = np.nonzero(np.triu(spec.V, 1))
                        assert gossip.rows.tolist() == rows.tolist() and gossip.cols.tolist() == cols.tolist()
                        assert gossip.probs.tobytes() == spec.link_outage[rows, cols].tobytes()
                        assert not gossip.probs.flags.writeable
                    else:
                        assert gossip.probs is None and gossip.rows is None
            # some networks' lambdas differ from the start's, so a plan on the task's
            # own specs would fail above
            start = [spec.lambda_c for spec in task.clusters]
            assert any(epoch.lambda_powers.lams.tolist() != start for epoch in plans)

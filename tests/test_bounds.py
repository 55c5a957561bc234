"""Certificate calculators against independent transcriptions and naive oracles."""

import math

import numpy as np
import pytest

from tthf import bounds
from tthf.bounds import Prop1Params
from tthf.schedules import StepSchedule

from conftest import local_grad


class TestDiversityFit:
    def test_identical_gradients_zero(self):
        g = np.array([1.0, 2.0])
        assert bounds.diversity_fit([g, g, g], g, 5.0, zeta=0.3) == 0.0

    def test_large_zeta_clamps_to_zero(self):
        grads = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        g_bar = np.array([0.5, 0.5])
        assert bounds.diversity_fit(grads, g_bar, w_hat_norm=100.0, zeta=1.0) == 0.0

    def test_matches_direct_max_oracle(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(4) for _ in range(6)]
        g_bar = sum(grads) / 6
        zeta, norm = 0.2, 1.7
        oracle = max(np.linalg.norm(g - g_bar) for g in grads) - zeta * norm
        assert bounds.diversity_fit(grads, g_bar, norm, zeta) == pytest.approx(
            max(0.0, oracle), rel=1e-12
        )


class TestLambdaPlus:
    def test_exactly_two_at_zero_omega(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = rng.uniform(1e-3, 5.0)
            beta = mu * rng.uniform(1.0, 50.0)
            assert bounds.lambda_plus(mu, beta, 0.0) == 2.0

    def test_upper_limit(self):
        assert bounds.lambda_plus(1e-9, 1.0, 1.0) == pytest.approx(1 + math.sqrt(3), abs=1e-6)

    def test_range_on_grid(self):
        for ratio in np.linspace(1e-6, 1.0, 25):
            for omega in np.linspace(0.0, 1.0, 25):
                val = bounds.lambda_plus(ratio, 1.0, omega)
                assert 2.0 <= val <= 1 + math.sqrt(3) + 1e-12


class TestSigmaPlus:
    def test_zero_at_interval_start(self):
        sched = StepSchedule(kind="diminishing", gamma=1.0, alpha=5.0)
        assert bounds.sigma_plus(7, 7, sched, beta=2.0, lam_plus=2.1) == 0.0

    def test_single_step_term(self):
        sched = StepSchedule(kind="diminishing", gamma=1.0, alpha=5.0)
        val = bounds.sigma_plus(8, 7, sched, beta=2.0, lam_plus=2.1)
        assert val == pytest.approx(2.0 * sched.eta(7), rel=1e-14)

    def test_matches_naive_triple_loop_oracle(self):
        sched = StepSchedule(kind="diminishing", gamma=1.3, alpha=4.0)
        beta, lam = 2.5, 2.2
        t_km1, t = 3, 8
        total = 0.0
        for ell in range(t_km1, t):
            left = 1.0
            for j in range(t_km1, ell):
                left *= 1.0 + sched.eta(j) * beta * lam
            right = 1.0
            for j in range(ell + 1, t):
                right *= 1.0 + sched.eta(j) * beta
            total += left * beta * sched.eta(ell) * right
        assert bounds.sigma_plus(t, t_km1, sched, beta, lam) == pytest.approx(total, rel=1e-12)


class TestDispersion:
    def test_equal_means_zero(self):
        means = [np.ones(3)] * 4
        assert bounds.dispersion_sample(means, [0.25] * 4) == 0.0

    def test_two_cluster_scalar_arithmetic(self):
        val = bounds.dispersion_sample([np.array([0.0]), np.array([2.0])], [0.5, 0.5])
        assert val == pytest.approx(1.0)

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(2)
        means = [rng.standard_normal(4) for _ in range(5)]
        w = rng.uniform(0.5, 2.0, size=5)
        w /= w.sum()
        center = sum(wi * m for wi, m in zip(w, means))
        oracle = sum(wi * np.sum((m - center) ** 2) for wi, m in zip(w, means))
        assert bounds.dispersion_sample(means, w) == pytest.approx(oracle, rel=1e-12)


class TestProp1Bound:
    def make_params(self, omega=0.2, alpha=None):
        mu, beta, gamma = 1.0, 2.0, 2.0
        lo = gamma * beta * max(
            bounds.lambda_plus(mu, beta, omega) - 2 + mu / (2 * beta), beta / mu
        )
        sched = StepSchedule(kind="diminishing", gamma=gamma, alpha=alpha or lo + 1.0)
        return Prop1Params(mu=mu, beta=beta, omega=omega, sigma2=0.5, delta=0.3, eps0=0.1, sched=sched)

    def test_zero_at_interval_start(self):
        p = self.make_params()
        assert bounds.prop1_bound(p, 5, 5, loss_gap_at_km1=3.0) == 0.0

    def test_noiseless_homogeneous_is_zero(self):
        p = self.make_params(omega=0.0)
        p = Prop1Params(p.mu, p.beta, 0.0, 0.0, 0.0, 0.0, p.sched)
        for t in range(6, 12):
            assert bounds.prop1_bound(p, t, 5, loss_gap_at_km1=2.0) == 0.0

    def test_hypothesis_violation_names_inequality(self):
        p = self.make_params(alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            bounds.prop1_bound(p, 6, 5, 1.0)

    def test_transcription_oracle(self):
        p = self.make_params()
        t, t_km1, gap = 9, 5, 1.7
        sig = bounds.sigma_plus(t, t_km1, p.sched, p.beta, p.lam_plus)
        oracle = 16 * p.omega**2 / p.mu * sig**2 * gap + 25 * sig**2 * (
            (p.sigma2 + p.delta**2) / p.beta**2 + p.eps0**2
        )
        assert bounds.prop1_bound(p, t, t_km1, gap) == pytest.approx(oracle, rel=1e-12)


class TestThm1Rhs:
    def test_pure_contraction(self):
        val = bounds.thm1_rhs(2.0, 0.1, beta=2.0, A_t=0.0, eps_t=0.0, eps_tp1=0.0, sigma2=0.0, mu=1.0)
        assert val == pytest.approx(0.9 * 2.0)

    def test_noise_only_arithmetic(self):
        val = bounds.thm1_rhs(0.0, 0.1, beta=2.0, A_t=0.0, eps_t=0.0, eps_tp1=0.0, sigma2=1.0, mu=1.0)
        assert val == pytest.approx(0.1**2 * 2.0 / 2.0)

    def test_step_size_guard(self):
        with pytest.raises(ValueError, match="1/beta"):
            bounds.thm1_rhs(1.0, 0.6, beta=2.0, A_t=0.0, eps_t=0.0, eps_tp1=0.0, sigma2=0.0, mu=1.0)


class TestThm2Constants:
    def test_tau_one_collapses(self):
        c = bounds.thm2_constants(
            gamma=2.0, alpha=10.0, mu=1.0, beta=2.0, tau=1, sigma2=1.0, phi=0.0,
            delta=0.5, init_gap=1.0, omega=0.1,
        )
        assert c.z1 == 0.0
        assert c.z2 == pytest.approx(1.0 / 4.0)
        assert c.omega_max == math.inf

    def test_phi_zero_sigma_one_arithmetic(self):
        c = bounds.thm2_constants(2.0, 10.0, 1.0, 2.0, 1, 1.0, 0.0, 0.0, 1.0, 0.0)
        assert c.z2 == pytest.approx(0.25)

    def test_full_transcription_oracle(self):
        # omega = 0 keeps the spec example inside the theorem's premise
        mu, beta, gamma, tau = 1.0, 2.0, 2.0, 5
        sigma2 = phi = delta = 0.1
        omega = 0.0
        x = mu / (4 * beta)
        alpha_min = gamma * beta * max(x - 1 + math.sqrt((1 + x) ** 2 + 2 * omega), beta / mu)
        alpha = alpha_min
        c = bounds.thm2_constants(gamma, alpha, mu, beta, tau, sigma2, phi, delta, 1.3, omega)
        growth = (1 + (tau - 1) / (alpha - 1)) ** (6 * beta * gamma)
        z1 = 32 * beta**2 * gamma / mu * (tau - 1) * (1 + tau / (alpha - 1)) ** 2 * growth
        z2 = (sigma2 + 2 * phi**2) / (2 * beta) + 50 * gamma * (tau - 1) * (
            1 + (tau - 2) / (alpha + 1)
        ) * growth * (sigma2 + phi**2 + delta**2)
        omega_max = (1 / (beta * gamma)) * math.sqrt(alpha / z1) * math.sqrt(
            mu * gamma - 1 + 1 / (1 + alpha)
        )
        nu = max(
            beta**2 * gamma**2 * z2 / (mu * gamma - 1),
            (alpha * z2 / z1) / (omega_max**2 - omega**2),
            alpha * 1.3,
        )
        assert c.alpha_min == pytest.approx(alpha_min, rel=1e-12)
        assert c.z1 == pytest.approx(z1, rel=1e-12)
        assert c.z2 == pytest.approx(z2, rel=1e-12)
        assert c.omega_max == pytest.approx(omega_max, rel=1e-12)
        assert c.nu == pytest.approx(nu, rel=1e-10)

    def test_inapplicable_when_mu_gamma_small(self):
        with pytest.raises(ValueError, match="inapplicable"):
            bounds.thm2_constants(0.9, 10.0, 1.0, 2.0, 5, 0.1, 0.1, 0.1, 1.0, 0.1)

    def test_omega_not_below_omega_max_names_omega(self):
        with pytest.raises(bounds.DiversityError, match=r"omega=0.1 is not below omega_max=0.000201") as info:
            bounds.thm2_constants(2.0, 10.0, 1.0, 2.0, 5, 0.1, 0.1, 0.1, 1.0, 0.1)
        assert not isinstance(info.value, bounds.RateOverflowError)

    @pytest.mark.parametrize("sigma2, phi", [(0.1, 1e154), (1e308, 0.1)])
    def test_overflowing_rate_constant_is_named_not_omega(self, sigma2, phi):
        # omega = 0 is below any omega_max, but Z2 overflows
        with pytest.raises(bounds.RateOverflowError, match="rate constant nu overflows") as info:
            bounds.thm2_constants(2.0, 10.0, 1.0, 2.0, 5, sigma2, phi, 0.1, 1.0, 0.0)
        assert isinstance(info.value, bounds.DiversityError) and "omega" not in str(info.value)

    def test_omega_max_increasing_in_alpha(self):
        for mu, beta, tau in ((1.0, 2.0, 5), (0.5, 2.5, 20)):
            gamma = 2.0 / mu
            alphas = np.linspace(5.0, 500.0, 40)
            vals = [bounds.omega_max_value(gamma, a, mu, beta, tau) for a in alphas]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEnvelopeHelpers:
    def test_envelope_check(self):
        gaps = np.array([1.0, 0.5, 0.25])
        ok, ts, bound = bounds.envelope_check(gaps, nu=10.0, alpha=5.0, t0=1)
        assert ok
        np.testing.assert_allclose(bound, 10.0 / (np.array([1, 2, 3]) + 5.0))

    def test_loglog_slope_recovers_power_law(self):
        ts = np.arange(10, 200)
        gaps = 3.0 * ts**-1.3
        assert bounds.loglog_slope(gaps, ts) == pytest.approx(-1.3, abs=1e-9)


class TestSgdVarianceBound:
    def test_bounds_exact_variance_on_ball(self):
        rng = np.random.default_rng(3)
        from tthf.losses import LINEAR_REGRESSION, DevicePartition, LossModel
        from tthf import losses

        model = LossModel(LINEAR_REGRESSION, reg=0.2, dim=3)
        part = DevicePartition(0, X=rng.standard_normal((8, 3)), y=rng.standard_normal(8))
        center = rng.standard_normal(3)
        radius = 0.7
        cap = bounds.sgd_variance_bound(model, part, batch_size=3, radius=radius, center=center)
        for _ in range(40):
            delta = rng.standard_normal(3)
            w = center + radius * delta / np.linalg.norm(delta) * rng.uniform(0, 1)
            exact = local_grad(model, w, part)
            per_point = [
                np.sum((losses.grad_point(model, w, x, y) - exact) ** 2)
                for x, y in zip(part.X, part.y)
            ]
            true_var = (1 - 3 / 8) / (3 * (8 - 1)) * np.sum(per_point)
            assert true_var <= cap + 1e-12

"""Adaptive control: step-size parameter selection, feasibility and phi caps,
online estimators, the divergence predictor, the D2D round rule, and the
interval-length line search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds, losses, trainer
from .consensus import divergence_estimate
from .costs import CostParams
from .losses import LossModel
from .schedules import StepSchedule
from .topology import ClusterSpec


class InfeasibleError(RuntimeError):
    """The (T, xi, tau) target cannot be certified even after relaxation."""


def select_alpha(
    mu: float,
    beta: float,
    gamma: float,
    omega: float,
    tau: int,
    cap: float = 1e9,
    tol: float = 1e-6,
    margin: float = 1.0,
) -> float:
    """Smallest alpha with alpha >= alpha_min and omega_max(alpha) > margin*omega.

    margin > 1 keeps omega_max clear of omega so the diversity term of the rate
    constant stays bounded; at the default the rule is the bare admissibility
    condition.
    """
    if mu * gamma <= 1.0:
        raise ValueError("need gamma > 1/mu")
    if not 0 <= omega < 1:
        raise ValueError("omega must lie in [0, 1)")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    alpha_min = bounds.alpha_min_value(gamma, mu, beta, omega)

    def admissible(alpha):
        return bounds.omega_max_value(gamma, alpha, mu, beta, tau) > margin * omega

    if admissible(alpha_min):
        return alpha_min
    lo, hi = alpha_min, alpha_min * 2.0
    while not admissible(hi):
        hi *= 2.0
        if hi > cap:
            raise InfeasibleError(
                f"gradient diversity too large: omega={omega} not below omega_max for any alpha <= {cap}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class FeasibilityResult:
    passed: bool
    nu_max: float
    terms: tuple[float, float, float]
    binding: str


_TERM_NAMES = ("noise", "diversity", "initial-gap")


def feasibility_check(
    T: int,
    xi: float,
    tau: int,
    mu: float,
    beta: float,
    gamma: float,
    alpha: float,
    omega: float,
    sigma2: float,
    delta: float,
    grad0_norm_sq: float,
) -> FeasibilityResult:
    """Can the loss target xi be certified at horizon T with these constants?

    grad0_norm_sq stands in for the unknown initial gap via the PL inequality;
    callers that know the true gap may pass 2*mu*init_gap instead.
    """
    nu_max = xi * (T + alpha)
    z1 = bounds.z1_value(gamma, alpha, mu, beta, tau)
    z2_min = bounds.z2_value(gamma, alpha, beta, tau, sigma2, 0.0, delta)
    first, second = bounds.nu_terms(gamma, alpha, mu, beta, z1, z2_min, omega)
    third = alpha * grad0_norm_sq / (2.0 * mu)
    terms = (first, second, third)
    return FeasibilityResult(
        passed=max(terms) <= nu_max,
        nu_max=nu_max,
        terms=terms,
        binding=_TERM_NAMES[int(np.argmax(terms))],
    )


def phi_max(
    nu_max: float,
    tau: int,
    mu: float,
    beta: float,
    gamma: float,
    alpha: float,
    omega: float,
    sigma2: float,
    delta: float,
) -> float:
    """Largest consensus-error coefficient that keeps nu within nu_max."""
    z1 = bounds.z1_value(gamma, alpha, mu, beta, tau)
    z2_min = bounds.z2_value(gamma, alpha, beta, tau, sigma2, 0.0, delta)
    first_cap = (mu * gamma - 1.0) / (beta**2 * gamma**2)
    # Z1*(omega_max^2-omega^2)/alpha, written to stay finite when Z1 = 0
    second_cap = (mu * gamma - 1.0 + 1.0 / (1.0 + alpha)) / (beta**2 * gamma**2) - omega**2 * z1 / alpha
    radicand_num = nu_max * min(first_cap, second_cap) - z2_min
    if radicand_num < 0:
        raise InfeasibleError("negative radicand: rerun the feasibility check first")
    if tau == 1:
        denom = 1.0
    else:
        growth = bounds._interval_power(tau, alpha, 6.0 * beta * gamma)
        denom = 1.0 + 50.0 * beta * gamma * (tau - 1.0) * (1.0 + (tau - 2.0) / (alpha + 1.0)) * growth
    return float(math.sqrt(beta) * math.sqrt(radicand_num / denom))


def estimate_sigma(
    model: LossModel,
    data: losses.DeviceData,
    device: int,
    w: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Device-side SGD noise probe from two independent mini-batches of one device.

    `device` indexes the stacked data; both batches are drawn from rng in turn.
    Returns (sigma2_local, g_hat) with g_hat the averaged gradient the device
    reports to the server.
    """
    if not 1 <= batch_size <= data.n_points[device]:
        raise ValueError(f"batch_size {batch_size} out of range [1, {data.n_points[device]}]")
    g1, g2 = losses.grad_batches(
        model, np.stack([w, w]), data, np.array([device, device]), batch_size, [rng, rng]
    )
    diff = g1 - g2
    return float(diff @ diff / 2.0), (g1 + g2) / 2.0


def server_sigma(local_estimates: Sequence[float]) -> float:
    """Server keeps the worst reported device noise."""
    return float(max(local_estimates))


@dataclass
class PredictorCoeffs:
    """Per-cluster linear divergence predictor, one branch per consensus regime."""

    A: float = 1.0
    B: float = 0.0
    a: float = 1.0
    b: float = 0.0
    idle_fallback: bool = True
    active_fallback: bool = True


def _fit_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    design = np.column_stack([xs, np.ones(len(xs))])
    sol, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
    return float(sol[0]), float(sol[1])


def fit_predictor(
    upsilon_history: Sequence[float], gamma_history: Sequence[int]
) -> PredictorCoeffs:
    """Least-squares fits of the two divergence transition branches.

    upsilon_history[i] is the divergence at step i of the previous interval
    (index 0 is the aggregation point, value 0); gamma_history[i] labels the
    transition ups[i] -> ups[i+1] with the rounds run at step i (the idle branch
    applies when no consensus preceded the new divergence sample).
    """
    if len(upsilon_history) != len(gamma_history) + 1:
        raise ValueError("need one more divergence sample than gamma entries")
    idle_x, idle_y, act_x, act_y = [], [], [], []
    for i, g in enumerate(gamma_history):
        (idle_x if g == 0 else act_x).append(float(upsilon_history[i]))
        (idle_y if g == 0 else act_y).append(float(upsilon_history[i + 1]))
    coeffs = PredictorCoeffs()
    if len(idle_x) >= 2:
        coeffs.A, coeffs.B = _fit_line(idle_x, idle_y)
        coeffs.idle_fallback = False
    if len(act_x) >= 2:
        coeffs.a, coeffs.b = _fit_line(act_x, act_y)
        coeffs.active_fallback = False
    return coeffs


def gamma_rounds(
    eta_t: float,
    phi: float,
    s_c: int,
    upsilon: float,
    lambda_c: float,
    gamma_max: Optional[int] = None,
) -> int:
    """Fewest D2D rounds whose contraction certificate meets the eta_t*phi target.

    Returns 0 whenever the divergence is already below the trigger threshold.
    """
    if not 0.0 < lambda_c < 1.0:
        raise ValueError(f"lambda_c={lambda_c} must lie in (0, 1)")
    if upsilon < 0:
        raise ValueError("upsilon must be non-negative")
    target = eta_t * phi
    scale = math.sqrt(s_c) * upsilon
    if upsilon == 0.0 or scale <= target:
        return 0
    if target <= 0.0:
        # no finite round count certifies a zero error target
        if gamma_max is None:
            raise ValueError("consensus error target must be positive")
        return gamma_max
    gamma = max(math.ceil(math.log(target / scale) / math.log(lambda_c)), 0)
    # guard the ceiling against log/exp rounding at regime boundaries
    while lambda_c**gamma * scale > target:
        gamma += 1
    while gamma > 0 and lambda_c ** (gamma - 1) * scale <= target:
        gamma -= 1
    if gamma_max is not None:
        gamma = min(gamma, gamma_max)
    return int(gamma)


def round_rule(
    clusters: Sequence[ClusterSpec], blocks, divergence, eta_t: float, phi: float,
    gamma_max: Optional[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster divergences and certified D2D rounds for one step.

    blocks holds (member cluster indices, (members, size, d) intermediate models)
    pairs, one per cluster size, as run_protocol passes them. `divergence`
    (divergence_exact or divergence_estimate) is called once per block, then
    gamma_rounds once per cluster. Returns (upsilon, gammas) in cluster order.
    """
    upsilon = np.zeros(len(clusters))
    for members, block in blocks:
        upsilon[members] = divergence(block)
    gammas = np.array([
        gamma_rounds(eta_t, phi, spec.size, ups, spec.lambda_c, gamma_max)
        for spec, ups in zip(clusters, upsilon.tolist())
    ])
    return upsilon, gammas


@dataclass
class ControlState:
    """Server-side estimates and step-size parameters driving the adaptive run."""

    zeta: float
    delta_prime: float
    sigma2: float
    gamma_step: float
    alpha: float
    phi: float
    nu_max: float
    xi: float
    T: int
    tau_max: int

    def step_schedule(self) -> StepSchedule:
        return StepSchedule(kind="diminishing", gamma=self.gamma_step, alpha=self.alpha)


def predict_interval_cost(
    t_km1: int,
    hi: int,
    coeffs_by_cluster: Sequence[PredictorCoeffs],
    clusters: Sequence[ClusterSpec],
    sched: StepSchedule,
    phi: float,
    cost: CostParams,
    gamma_max: Optional[int] = None,
) -> list[float]:
    """Objective values of the candidate interval lengths 1..hi under the predictor.

    The predicted divergence and rounds do not depend on the length, so one
    simulation to t_km1+hi yields every length's energy and delay as running sums.
    """
    energy = cost.e_glob
    delay = cost.delta_glob
    upsilon = [0.0] * len(clusters)
    values = []
    for t in range(t_km1, t_km1 + hi + 1):
        for c, (spec, coeffs) in enumerate(zip(clusters, coeffs_by_cluster)):
            g = gamma_rounds(sched.eta(t), phi, spec.size, upsilon[c], spec.lambda_c, gamma_max)
            energy += g * spec.size * cost.e_d2d
            delay += g * cost.delta_d2d
            # the rounds run at t pick the predictor branch of the divergence at t+1
            slope, offset = (coeffs.A, coeffs.B) if g == 0 else (coeffs.a, coeffs.b)
            upsilon[c] = max(0.0, slope * upsilon[c] + offset)
        if t > t_km1:
            values.append(sum(cost.interval_terms(energy, delay, t_km1, t - t_km1, sched.alpha)))
    return values


def solve_P(
    t_km1: int,
    coeffs_by_cluster: Sequence[PredictorCoeffs],
    clusters: Sequence[ClusterSpec],
    sched: StepSchedule,
    phi: float,
    cost: CostParams,
    tau_max: int,
    T: int,
    gamma_max: Optional[int] = None,
) -> int:
    """Integer line search for the next interval length; ties go to the smaller tau."""
    hi = min(tau_max, T - t_km1)
    if hi < 1:
        raise ValueError("no feasible interval length remains before the horizon")
    values = predict_interval_cost(
        t_km1, hi, coeffs_by_cluster, clusters, sched, phi, cost, gamma_max
    )
    best_tau, best_val = 1, math.inf
    for tau, val in enumerate(values, start=1):
        if val < best_val - 1e-15:
            best_tau, best_val = tau, val
    return best_tau


@dataclass
class AdaptiveConfig:
    """Knobs of the adaptive controller (defaults follow the experimental setup).

    xi=None resolves the loss target automatically to xi_boost times the smallest
    certifiable value, since the rate constants are far too pessimistic for any
    performance-level target to pass the feasibility check directly.
    """

    xi: Optional[float] = None
    xi_boost: float = 4.0
    T: int = 400
    tau_max: int = 40
    tau1: int = 10
    zeta_frac: float = 0.1
    gamma_over_mu: float = 2.0
    sigma_batch: int = 16
    gamma_max: int = 100
    alpha_cap: float = 1e9
    alpha_margin: float = 2.0
    use_pl_surrogate: bool = True

    def __post_init__(self):
        for name in ("tau_max", "tau1", "sigma_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.gamma_over_mu <= 1.0:
            raise ValueError("gamma_over_mu must exceed 1 (the step size needs gamma > 1/mu)")
        if not 0.0 <= self.zeta_frac < 1.0:
            raise ValueError("zeta_frac must lie in [0, 1)")
        if self.gamma_max < 0:
            raise ValueError("gamma_max must be >= 0")
        if self.xi is not None and self.xi <= 0:
            raise ValueError("xi must be > 0")
        for name in ("xi_boost", "alpha_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.alpha_margin < 1:
            raise ValueError("alpha_margin must be >= 1")


# feasibility relaxation caps: T doubles up to this often, then xi loosens
_MAX_T_DOUBLINGS = 3
_MAX_XI_RELAXATIONS = 3


def _probe(task, models, batch, rng):
    """One sampled device per cluster probes its gradient at its own row of models.

    A device with at most `batch` points reports its exact gradient and no noise.
    Returns the server's sigma2, the per-cluster gradients and their weighted mean.
    """
    data = task.data
    devices = np.empty(len(task.clusters), dtype=int)
    sigma_locals = np.zeros(len(task.clusters))
    grads = np.empty((len(task.clusters), task.model.dim))
    for c, (spec, sl) in enumerate(zip(task.clusters, data.cluster_slices)):
        dev = devices[c] = sl.start + int(rng.integers(0, spec.size))
        if batch < data.n_points[dev]:
            sigma_locals[c], grads[c] = estimate_sigma(task.model, data, dev, models[dev], batch, rng)
    full = data.n_points[devices] <= batch
    if full.any():
        grads[full] = losses.grad_full(task.model, models, data)[devices[full]]
    g_bar = sum(data.varrho[c] * g for c, g in enumerate(grads))
    return server_sigma(sigma_locals), grads, g_bar


def run_adaptive(
    task,
    config: AdaptiveConfig,
    cost: Optional[CostParams] = None,
    outage=None,
    seed: int = 0,
    topology_refresh=None,
):
    """TT-HF under the full adaptive controller.

    Returns (trace, state). Step-size parameters, phi, and the divergence
    predictor are re-estimated at every aggregation; interval lengths come from
    the line search, and per-step D2D rounds from the live divergence estimate.
    """
    cost = cost or CostParams()
    rng_init = np.random.default_rng(np.random.SeedSequence([seed, 0x1A17]))
    w0 = task.w0
    zeta = config.zeta_frac * 2.0 * task.beta
    omega = config.zeta_frac  # zeta/(2 beta)
    gamma_step = config.gamma_over_mu / task.mu

    sigma2, grads, g_bar = _probe(task, np.tile(w0, (task.n_devices, 1)), config.sigma_batch, rng_init)
    delta_prime = bounds.diversity_fit(grads, g_bar, float(np.linalg.norm(w0)), zeta)
    grad0_sq = float(g_bar @ g_bar) if config.use_pl_surrogate else 2.0 * task.mu * (
        task.global_loss(w0) - task.f_star
    )

    # feasibility with bounded relaxation: double T, then loosen xi, then fail
    T = config.T
    alpha = select_alpha(
        task.mu, task.beta, gamma_step, omega, config.tau_max,
        cap=config.alpha_cap, margin=config.alpha_margin,
    )
    if config.xi is None:
        probe = feasibility_check(
            T, 1.0, config.tau_max, task.mu, task.beta, gamma_step, alpha, omega,
            sigma2, delta_prime, grad0_sq,
        )
        # all-zero probes (every sampled gradient vanished) carry no signal;
        # fall back to a unit certificate level so phi stays positive
        base = max(probe.terms)
        if base <= 0.0:
            base = 1.0
        xi = base / (T + alpha) * config.xi_boost
    else:
        xi = config.xi
    feas = None
    for attempt in range(_MAX_T_DOUBLINGS + _MAX_XI_RELAXATIONS + 1):
        feas = feasibility_check(
            T, xi, config.tau_max, task.mu, task.beta, gamma_step, alpha, omega,
            sigma2, delta_prime, grad0_sq,
        )
        if feas.passed:
            break
        if attempt < _MAX_T_DOUBLINGS:
            T *= 2
        else:
            xi *= 1.25
    if not feas.passed:
        raise InfeasibleError(
            f"loss target infeasible after relaxation (binding term: {feas.binding})"
        )

    phi = phi_max(
        feas.nu_max, config.tau_max, task.mu, task.beta, gamma_step, alpha, omega,
        sigma2, delta_prime,
    )
    state = ControlState(
        zeta=zeta, delta_prime=delta_prime, sigma2=sigma2, gamma_step=gamma_step,
        alpha=alpha, phi=phi, nu_max=feas.nu_max, xi=xi, T=T, tau_max=config.tau_max,
    )

    # gamma_step and alpha are fixed at start-up, so one schedule serves the run
    sched = state.step_schedule()
    n_clusters = len(task.clusters)
    # divergences and rounds of the running interval, by local step; row 0 is
    # the aggregation point, where the divergence is 0 and no rounds ran
    ups_log = np.zeros((config.tau_max + 1, n_clusters))
    gam_log = np.zeros((config.tau_max + 1, n_clusters), dtype=int)
    t_km1 = 0
    tau_next = min(config.tau1, config.tau_max)

    def gamma_provider(local_step, clusters, blocks, eta_next):
        ups_log[local_step], gam_log[local_step] = round_rule(
            clusters, blocks, divergence_estimate, eta_next, state.phi, config.gamma_max
        )
        return gam_log[local_step]

    def on_aggregate(t_k, w_hat, W, rng, clusters):
        nonlocal t_km1, tau_next
        # device-side probes at the sampled models, then server-side re-estimation
        state.sigma2, g_list, g_bar_k = _probe(task, W, config.sigma_batch, rng)
        state.delta_prime = bounds.diversity_fit(
            g_list, g_bar_k, float(np.linalg.norm(w_hat)), state.zeta
        )
        # state.alpha keeps its start-up value: select_alpha's inputs never change
        phi_note = ""
        try:
            state.phi = phi_max(
                state.xi * (state.T + state.alpha), config.tau_max, task.mu, task.beta,
                state.gamma_step, state.alpha, omega, state.sigma2, state.delta_prime,
            )
        except InfeasibleError:
            phi_note = "kept-previous-phi"
        nu = bounds.thm2_constants(
            state.gamma_step, state.alpha, task.mu, task.beta, config.tau_max,
            state.sigma2, state.phi, state.delta_prime,
            float(g_bar_k @ g_bar_k) / (2.0 * task.mu), omega,
        ).nu

        # refit the divergence predictor on the finished interval, then plan tau;
        # the transition ups[i] -> ups[i+1] is governed by the rounds at step i
        tau = t_k - t_km1
        coeffs = [fit_predictor(ups_log[: tau + 1, c], gam_log[:tau, c]) for c in range(n_clusters)]
        t_km1 = t_k
        if t_k < state.T:
            tau_next = solve_P(
                t_k, coeffs, clusters, sched, state.phi, cost,
                config.tau_max, state.T, gamma_max=config.gamma_max,
            )
        return {
            "alpha": state.alpha,
            "gamma_step": state.gamma_step,
            "phi": state.phi,
            "delta_prime": state.delta_prime,
            "sigma2": state.sigma2,
            "nu": nu,
            "tau_next": tau_next,
            "note": phi_note,
        }

    trace = trainer.run_protocol(
        task,
        sched,
        state.T,
        lambda k: tau_next,
        gamma_provider,
        aggregation=trainer.SAMPLED,
        outage=outage,
        cost=cost,
        seed=seed,
        on_aggregate=on_aggregate,
        topology_refresh=topology_refresh,
    )
    trace.meta["control"] = {
        "alpha": state.alpha, "gamma_step": state.gamma_step, "phi": state.phi,
        "xi": state.xi, "T": state.T, "nu_max": state.nu_max,
    }
    return trace, state

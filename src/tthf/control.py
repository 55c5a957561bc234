"""Adaptive control: step-size parameter selection, feasibility and phi caps,
online estimators, the divergence predictor, the D2D round rule, and the
interval-length line search."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from . import bounds, losses, trainer
from .consensus import divergence_estimate
from .costs import CostParams
from .losses import LossModel
from .schedules import StepSchedule


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
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if mu * gamma <= 1.0:
        raise ValueError("need gamma > 1/mu")
    if not 0 <= omega < 1:
        raise ValueError("omega must lie in [0, 1)")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    alpha_min = bounds.alpha_min_value(gamma, mu, beta, omega)

    def admissible(alpha):
        try:
            return bounds.omega_max_value(gamma, alpha, mu, beta, tau) > margin * omega
        except OverflowError:  # an omega_max beyond float range certifies nothing
            return False

    if admissible(alpha_min):
        return alpha_min
    lo, hi = alpha_min, alpha_min * 2.0
    while not admissible(hi):
        hi *= 2.0
        if not hi <= cap:
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


@dataclass
class PredictorCoeffs:
    """Linear divergence predictor, one branch per consensus regime.

    Each field holds one value per cluster, or a scalar that applies to every cluster.
    """

    A: np.ndarray | float = 1.0
    B: np.ndarray | float = 0.0
    a: np.ndarray | float = 1.0
    b: np.ndarray | float = 0.0
    idle_fallback: np.ndarray | bool = True
    active_fallback: np.ndarray | bool = True


def fit_predictor(upsilon_history, gamma_history) -> PredictorCoeffs:
    """Least-squares fits of the two divergence transition branches of every cluster.

    upsilon_history is (tau+1, C): row i holds the divergences at step i of the
    previous interval (row 0 is the aggregation point, value 0). gamma_history is
    (tau, C): row i labels the transitions ups[i] -> ups[i+1] with the rounds run
    at step i (the idle branch applies when no consensus preceded the new
    divergence sample). A 1-D history is one cluster. A branch with fewer than
    two transitions keeps the identity line (1, 0) and sets its fallback flag.
    """
    ups = np.asarray(upsilon_history, dtype=float)
    gammas = np.asarray(gamma_history)
    if len(ups) != len(gammas) + 1:
        raise ValueError("need one more divergence sample than gamma entries")
    x, y, idle = ups[:-1].T, ups[1:].T, (gammas == 0).T
    fits = []
    for rows in (idle, ~idle):
        # zeroed rows outside the branch leave its least-squares problem as it
        # was; pinv gives lstsq's minimum-norm solution, rank-deficient or not
        design = np.stack([x * rows, rows.astype(float)], axis=-1)
        line = (np.linalg.pinv(design) @ (y * rows)[..., None])[..., 0]
        fallback = np.count_nonzero(rows, axis=-1) < 2
        slope, offset = np.where(fallback[..., None], (1.0, 0.0), line).T
        fits += [slope, offset, fallback]
    A, B, idle_fallback, a, b, active_fallback = fits
    return PredictorCoeffs(A, B, a, b, idle_fallback, active_fallback)


# The rule compares lam ** k * scale with the target exactly, so at a regime
# boundary one ulp decides the count. It reads the powers from a table of
# Python's float ** (the C library's pow), which np.power does not reproduce
# bit for bit. A search doubles the width while some count lies past it.
_TABLE_WIDTH = 128


# one entry per set of cluster lambdas and width in use, keyed by bytes for direct
# callers (the D2DEpoch takes it over after ROADMAP item 2); a topology refresh
# brings new bytes, so stale entries age out
@functools.lru_cache(maxsize=8)
def _lambda_table(lams_bytes: bytes, width: int) -> np.ndarray:
    """The (clusters, width) table of lam_c ** k, k < width, of the lambdas with
    these bytes. Read-only, as callers share it."""
    lams = np.frombuffer(lams_bytes)
    valid = (lams >= 0.0) & (lams < 1.0)
    if not valid.all():
        raise ValueError(f"lambda_c={lams[~valid][0]} must lie in [0, 1)")
    table = np.array([[lam**k for k in range(width)] for lam in lams.tolist()])
    table.flags.writeable = False
    return table


def gamma_rounds(
    eta_t: float,
    phi: float,
    s_c,
    upsilon,
    lambda_c,
    gamma_max: Optional[int] = None,
):
    """Fewest D2D rounds whose contraction certificate meets the eta_t*phi target.

    Returns 0 whenever the divergence is already below the trigger threshold.
    s_c, upsilon and lambda_c may be arrays, one entry per cluster: the result
    is then one round count per entry, an int array of their broadcast shape;
    for scalars it is an int.
    """
    sizes = np.asarray(s_c, dtype=float)
    ups = np.asarray(upsilon, dtype=float)
    lams = np.asarray(lambda_c, dtype=float)
    shape = ups.shape
    if not (ups.ndim == 1 and sizes.shape == shape == lams.shape):
        sizes, ups, lams = np.broadcast_arrays(sizes, ups, lams)
        shape = ups.shape
        sizes, ups, lams = sizes.ravel(), ups.ravel(), lams.ravel()
    table = _lambda_table(lams.tobytes(), _TABLE_WIDTH)
    # an infinite divergence would meet no target, and the search would not end
    if not 0.0 <= ups.min() <= ups.max() < np.inf:
        raise ValueError("upsilon must be non-negative and finite")
    target = eta_t * phi
    scale = np.sqrt(sizes) * ups
    active = scale > target
    if target < 0.0:
        active &= ups != 0.0
    gammas = np.zeros(len(ups), dtype=int)
    n_active = np.count_nonzero(active)
    if n_active and target <= 0.0:
        # no finite round count certifies a zero error target
        if gamma_max is None:
            raise ValueError("consensus error target must be positive")
        gammas[active] = gamma_max
    elif n_active:
        rows = slice(None) if n_active == len(ups) else active.nonzero()[0]
        scale = scale[rows, None]
        # the first power that meets the target; lam ** 0 * scale = scale
        # misses it, so a count of 0 means that no power in the table does
        g = (table[rows] * scale <= target).argmax(axis=1)
        while not g.all():
            if gamma_max is not None and table.shape[1] >= gamma_max:
                g[g == 0] = table.shape[1]  # the count lies past the table, so at or past gamma_max
                break
            table = _lambda_table(lams.tobytes(), 2 * table.shape[1])
            g = (table[rows] * scale <= target).argmax(axis=1)
        # every count is at most the table's width, so only a wider table needs the cap
        if gamma_max is not None and table.shape[1] > gamma_max:
            np.minimum(g, gamma_max, out=g)
        gammas[rows] = g
    return int(gammas[0]) if shape == () else gammas.reshape(shape)


def round_rule(
    epoch: trainer.D2DEpoch, blocks, divergence, eta_t: float, phi: float, gamma_max: Optional[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster divergences and certified D2D rounds for one step.

    blocks holds (member cluster indices, (members, size, d) intermediate models)
    pairs, one per cluster size, as run_protocol passes them. `divergence`
    (divergence_exact or divergence_estimate) is called once per block, then gamma_rounds
    once on the epoch's sizes and lambdas; perfbench patches both names to count the calls.
    Returns (upsilon, gammas) in cluster order.
    """
    upsilon = np.zeros(len(epoch.sizes))
    for members, block in blocks:
        upsilon[members] = divergence(block)
    return upsilon, gamma_rounds(eta_t, phi, epoch.sizes, upsilon, epoch.lams, gamma_max)


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

    def step_schedule(self) -> StepSchedule:
        return StepSchedule(kind="diminishing", gamma=self.gamma_step, alpha=self.alpha)


def predict_interval_cost(
    t_km1: int,
    hi: int,
    coeffs: PredictorCoeffs,
    epoch: trainer.D2DEpoch,
    sched: StepSchedule,
    phi: float,
    cost: CostParams,
    gamma_max: Optional[int] = None,
) -> list[float]:
    """Objective values of the candidate interval lengths 1..hi under the predictor.

    The predicted divergence and rounds do not depend on the length, so one
    simulation to t_km1+hi yields every length's energy and delay as running sums.
    """
    sizes, n = epoch.sizes, len(epoch.sizes)
    upsilon = np.zeros(n)
    gammas = np.empty((hi + 1, n), dtype=int)
    for i, t in enumerate(range(t_km1, t_km1 + hi + 1)):
        g = gammas[i] = gamma_rounds(sched.eta(t), phi, sizes, upsilon, epoch.lams, gamma_max)
        # the rounds run at t pick the predictor branch of the divergence at t+1
        idle = g == 0
        upsilon = np.where(idle, coeffs.A, coeffs.a) * upsilon + np.where(idle, coeffs.B, coeffs.b)
        upsilon = np.where(upsilon > 0.0, upsilon, 0.0)
    # running sums, cluster after cluster and step after step; cumsum adds in
    # that order, where a sum would add pairwise
    energy = np.cumsum(np.append(cost.e_glob, gammas * sizes * cost.e_d2d))
    delay = np.cumsum(np.append(cost.delta_glob, gammas * cost.delta_d2d))
    return [
        sum(cost.interval_terms(e, d, t_km1, tau, sched.alpha))
        for tau, (e, d) in enumerate(zip(energy[2 * n :: n].tolist(), delay[2 * n :: n].tolist()), start=1)
    ]


def solve_P(
    t_km1: int,
    coeffs: PredictorCoeffs,
    epoch: trainer.D2DEpoch,
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
    values = predict_interval_cost(t_km1, hi, coeffs, epoch, sched, phi, cost, gamma_max)
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

    def __post_init__(self):
        for name in ("tau_max", "tau1", "sigma_batch"):
            # a fractional length or batch would be truncated or fail mid-run;
            # JSON true/false load as bool, a subclass of int
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.gamma_over_mu > 1.0:
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


def _probe(task, models, w_ref, zeta, batch, rng):
    """One sampled device per cluster probes its gradient at its own row of models.

    A device with at most `batch` points reports its exact gradient and no noise.
    Returns the server's sigma2, the diversity fit delta' of the per-cluster
    gradients at the reference model w_ref, and the gradients' weighted mean.
    """
    data = task.data
    devices = np.empty(len(data.cluster_slices), dtype=int)
    sigma_locals = np.zeros(len(devices))
    grads = np.empty((len(devices), task.model.dim))
    for c, sl in enumerate(data.cluster_slices):
        dev = devices[c] = sl.start + int(rng.integers(0, sl.stop - sl.start))
        if batch < data.n_points[dev]:
            sigma_locals[c], grads[c] = estimate_sigma(task.model, data, dev, models[dev], batch, rng)
    full = data.n_points[devices] <= batch
    if full.any():
        grads[full] = losses.grad_full(task.model, models, data)[devices[full]]
    g_bar = sum(data.varrho[c] * g for c, g in enumerate(grads))
    delta_prime = bounds.diversity_fit(grads, g_bar, float(np.linalg.norm(w_ref)), zeta)
    # the server keeps the worst reported device noise
    return float(max(sigma_locals)), delta_prime, g_bar


def run_adaptive(
    task,
    config: AdaptiveConfig,
    cost: Optional[CostParams] = None,
    lossy: bool = False,
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
    # the server's probes at every aggregation draw from their own stream
    rng_probe = np.random.default_rng(np.random.SeedSequence([seed, 0xE57]))
    w0 = task.w0
    zeta = config.zeta_frac * 2.0 * task.beta
    omega = config.zeta_frac  # zeta/(2 beta)
    gamma_step = config.gamma_over_mu / task.mu

    sigma2, delta_prime, g_bar = _probe(
        task, np.tile(w0, (task.n_devices, 1)), w0, zeta, config.sigma_batch, rng_init
    )
    # the PL surrogate |grad F(w0)|^2 stands in for 2 mu (F(w0) - F*), which the server cannot see
    grad0_sq = float(g_bar @ g_bar)

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
        alpha=alpha, phi=phi, nu_max=feas.nu_max, xi=xi, T=T,
    )

    # gamma_step and alpha are fixed at start-up, so one schedule serves the run
    sched = state.step_schedule()
    # divergences and rounds of the running interval, by local step; row 0 is
    # the aggregation point, where the divergence is 0 and no rounds ran
    ups_log = np.zeros((config.tau_max + 1, len(task.clusters)))
    gam_log = np.zeros(ups_log.shape, dtype=int)
    tau_next = min(config.tau1, config.tau_max)

    def gamma_provider(local_step, epoch, blocks, eta_next):
        ups_log[local_step], gam_log[local_step] = round_rule(
            epoch, blocks, divergence_estimate, eta_next, state.phi, config.gamma_max
        )
        return gam_log[local_step]

    def on_aggregate(t_k, tau, w_hat, W, epoch):
        nonlocal tau_next
        # device-side probes at the sampled models, then server-side re-estimation
        state.sigma2, state.delta_prime, g_bar_k = _probe(
            task, W, w_hat, state.zeta, config.sigma_batch, rng_probe
        )
        # state.alpha keeps its start-up value: select_alpha's inputs never change
        phi_note = ""
        try:
            state.phi = phi_max(
                state.nu_max, config.tau_max, task.mu, task.beta,
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
        coeffs = fit_predictor(ups_log[: tau + 1], gam_log[:tau])
        if t_k < state.T:
            tau_next = solve_P(
                t_k, coeffs, epoch, sched, state.phi, cost,
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
        lossy=lossy,
        cost=cost,
        seed=seed,
        on_aggregate=on_aggregate,
        topology_refresh=topology_refresh,
    )
    return trace, state

"""Closed-form convergence quantities: gradient diversity, dispersion bounds,
the one-step descent certificate, and the sublinear-rate constants."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .losses import (
    LINEAR_REGRESSION, LossModel, device_data, grad_full, grad_point, solve_optimum,
)
from .schedules import StepSchedule


def diversity_fit(
    cluster_grads: Sequence[np.ndarray],
    global_grad: np.ndarray,
    w_hat_norm: float,
    zeta: float,
) -> float:
    """Smallest delta' with |g_c - g| <= delta' + zeta*|w_hat| for every cluster."""
    worst = max(float(np.linalg.norm(g - global_grad)) for g in cluster_grads)
    return max(0.0, worst - zeta * w_hat_norm)


def exact_diversity_quadratic(model: LossModel, clusters) -> tuple[float, float]:
    """(delta, zeta) certified for a regularized quadratic task.

    The cluster-vs-global gradient gap is affine in w, so delta is the gap at the
    optimum and zeta the spectral norm of the worst cluster-Hessian difference.
    """
    if model.kind != LINEAR_REGRESSION:
        raise ValueError("exact diversity constants only available for quadratics")
    data = device_data(model, clusters)
    w_star = solve_optimum(model, data)
    h_clusters = [data.A[sl].mean(axis=0) for sl in data.cluster_slices]
    g_clusters = [h @ w_star - data.b[sl].mean(axis=0) for h, sl in zip(h_clusters, data.cluster_slices)]
    h_global = sum(wt * h for wt, h in zip(data.varrho, h_clusters))
    delta = max(float(np.linalg.norm(g)) for g in g_clusters)
    zeta = max(float(np.max(np.abs(np.linalg.eigvalsh(h - h_global)))) for h in h_clusters)
    return delta, zeta


def lambda_plus(mu: float, beta: float, omega: float) -> float:
    """Coupled-dynamics growth factor; equals 2 at omega=0 and at most 1+sqrt(3)."""
    if not 0 < mu <= beta:
        raise ValueError("need 0 < mu <= beta")
    if not 0 <= omega <= 1:
        raise ValueError("omega must lie in [0, 1]")
    x = mu / (4.0 * beta)
    return 1.0 - x + math.sqrt((1.0 + x) ** 2 + 2.0 * omega)


def sigma_plus(t: int, t_km1: int, sched: StepSchedule, beta: float, lam_plus: float) -> float:
    """Accumulated product-sum driving the dispersion bound; 0 at the interval start."""
    if t < t_km1:
        raise ValueError("t must be >= t_km1")
    if t == t_km1:
        return 0.0
    etas = np.array([sched.eta(j) for j in range(t_km1, t)])
    n = len(etas)
    left = np.ones(n)  # prod_{j<ell} (1 + eta_j beta lam_plus)
    for i in range(1, n):
        left[i] = left[i - 1] * (1.0 + etas[i - 1] * beta * lam_plus)
    right = np.ones(n)  # prod_{j>ell} (1 + eta_j beta)
    for i in range(n - 2, -1, -1):
        right[i] = right[i + 1] * (1.0 + etas[i + 1] * beta)
    return float(np.sum(left * beta * etas * right))


def dispersion_sample(cluster_means: Sequence[np.ndarray], weights: Sequence[float]):
    """Weighted squared spread of cluster-average models around the network average.

    Axes before the last two stack sets of cluster means, one spread each; one
    set of (clusters, d) means gives a float.
    """
    means = np.asarray(cluster_means, dtype=float)
    w = np.asarray(weights, dtype=float)
    if means.shape[-2] != w.shape[0]:
        raise ValueError("one weight per cluster mean required")
    center = w @ means
    out = np.sum(w * np.sum((means - center[..., None, :]) ** 2, axis=-1), axis=-1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Prop1Params:
    mu: float
    beta: float
    omega: float
    sigma2: float
    delta: float
    eps0: float
    sched: StepSchedule

    @property
    def lam_plus(self) -> float:
        return lambda_plus(self.mu, self.beta, self.omega)


def prop1_bound(params: Prop1Params, t: int, t_km1: int, loss_gap_at_km1: float) -> float:
    """Dispersion certificate within one interval, given the loss gap at its start."""
    sched = params.sched
    if sched.kind == "diminishing":
        floor = alpha_min_value(sched.gamma, params.mu, params.beta, params.omega)
        if sched.alpha < floor - 1e-12:
            raise ValueError(
                f"hypothesis violated: alpha={sched.alpha} < gamma*beta*max(lambda_plus-2+mu/(2beta), beta/mu)={floor}"
            )
    sig = sigma_plus(t, t_km1, sched, params.beta, params.lam_plus)
    lead = 16.0 * params.omega**2 / params.mu * sig**2 * loss_gap_at_km1
    tail = 25.0 * sig**2 * ((params.sigma2 + params.delta**2) / params.beta**2 + params.eps0**2)
    return float(lead + tail)


def thm1_rhs(
    prev_gap: float,
    eta_t: float,
    beta: float,
    A_t: float,
    eps_t: float,
    eps_tp1: float,
    sigma2: float,
    mu: float,
) -> float:
    """One-step certificate on the expected global-model loss gap."""
    if eta_t > 1.0 / beta + 1e-15:
        raise ValueError(f"step size {eta_t} exceeds 1/beta={1.0 / beta}")
    contraction = (1.0 - mu * eta_t) * prev_gap
    drift = 0.5 * eta_t * beta**2 * A_t
    noise = 0.5 * (eta_t * beta**2 * eps_t**2 + eta_t**2 * beta * sigma2 + beta * eps_tp1**2)
    return float(contraction + drift + noise)


def _interval_power(tau: float, alpha: float, exponent: float) -> float:
    base = 1.0 + (tau - 1.0) / (alpha - 1.0)
    try:
        return math.exp(exponent * math.log(base))
    except OverflowError:
        return math.inf


class DiversityError(ValueError):
    """The gradient diversity omega is not below omega_max, so Theorem 2 gives no rate."""


@dataclass(frozen=True)
class Thm2Constants:
    alpha_min: float
    omega_max: float
    z1: float
    z2: float
    nu: float
    gamma: float
    alpha: float
    mu: float
    beta: float
    tau: int
    sigma2: float
    phi: float
    delta: float
    omega: float
    init_gap: float


def alpha_min_value(gamma: float, mu: float, beta: float, omega: float) -> float:
    """Smallest alpha admitted by the sublinear-rate theorem's step-size condition."""
    x = mu / (4.0 * beta)
    first = x - 1.0 + math.sqrt((1.0 + x) ** 2 + 2.0 * omega)
    return gamma * beta * max(first, beta / mu)


def z1_value(gamma: float, alpha: float, mu: float, beta: float, tau: int) -> float:
    if tau == 1:
        return 0.0
    growth = _interval_power(tau, alpha, 6.0 * beta * gamma)
    return 32.0 * beta**2 * gamma / mu * (tau - 1.0) * (1.0 + tau / (alpha - 1.0)) ** 2 * growth


def z2_value(
    gamma: float, alpha: float, beta: float, tau: int, sigma2: float, phi: float, delta: float
) -> float:
    head = (sigma2 + 2.0 * phi**2) / (2.0 * beta)
    if tau == 1:
        return head
    growth = _interval_power(tau, alpha, 6.0 * beta * gamma)
    tail = 50.0 * gamma * (tau - 1.0) * (1.0 + (tau - 2.0) / (alpha + 1.0)) * growth
    return head + tail * (sigma2 + phi**2 + delta**2)


def omega_max_value(gamma: float, alpha: float, mu: float, beta: float, tau: int) -> float:
    z1 = z1_value(gamma, alpha, mu, beta, tau)
    if z1 == 0.0:
        return math.inf
    return (1.0 / (beta * gamma)) * math.sqrt(alpha / z1) * math.sqrt(mu * gamma - 1.0 + 1.0 / (1.0 + alpha))


def nu_terms(
    gamma: float, alpha: float, mu: float, beta: float, z1: float, z2: float, omega: float
) -> tuple[float, float]:
    """The noise and diversity terms of nu; the second is inf unless omega < omega_max."""
    first = beta**2 * gamma**2 * z2 / (mu * gamma - 1.0)
    # (alpha*Z2/Z1)/(omega_max^2 - omega^2) in a form that is finite at Z1 = 0
    denom = alpha * (mu * gamma - 1.0 + 1.0 / (1.0 + alpha)) - omega**2 * beta**2 * gamma**2 * z1
    second = math.inf if denom <= 0 else alpha * z2 * beta**2 * gamma**2 / denom
    return first, second


def thm2_constants(
    gamma: float,
    alpha: float,
    mu: float,
    beta: float,
    tau: int,
    sigma2: float,
    phi: float,
    delta: float,
    init_gap: float,
    omega: float,
) -> Thm2Constants:
    """All constants of the sublinear-rate guarantee gap(t) <= nu/(t+alpha)."""
    if mu * gamma <= 1.0:
        raise ValueError("Theorem 2 inapplicable: need gamma > 1/mu")
    if alpha <= 1.0:
        raise ValueError("need alpha > 1")
    if tau < 1:
        raise ValueError("need tau >= 1")
    if not 0 <= omega <= 1:
        raise ValueError("omega must lie in [0, 1]")
    z1 = z1_value(gamma, alpha, mu, beta, tau)
    z2 = z2_value(gamma, alpha, beta, tau, sigma2, phi, delta)
    omega_max = omega_max_value(gamma, alpha, mu, beta, tau)
    first, second = nu_terms(gamma, alpha, mu, beta, z1, z2, omega)
    if second == math.inf:
        raise DiversityError(f"omega={omega:.4g} is not below omega_max={omega_max:.4g}")
    nu = max(first, second, alpha * init_gap)
    return Thm2Constants(
        alpha_min=alpha_min_value(gamma, mu, beta, omega),
        omega_max=omega_max,
        z1=z1,
        z2=z2,
        nu=nu,
        gamma=gamma,
        alpha=alpha,
        mu=mu,
        beta=beta,
        tau=tau,
        sigma2=sigma2,
        phi=phi,
        delta=delta,
        omega=omega,
        init_gap=init_gap,
    )


def envelope_check(gaps: np.ndarray, nu: float, alpha: float, t0: int = 0):
    """Per-t (measured, bound) pairs and the overall pass flag for gap <= nu/(t+alpha)."""
    ts = np.arange(t0, t0 + len(gaps))
    bound = nu / (ts + alpha)
    ok = bool(np.all(gaps <= bound))
    return ok, ts, bound


def loglog_slope(gaps: np.ndarray, ts: np.ndarray) -> float:
    """Least-squares slope of log(gap) against log(t)."""
    mask = (np.asarray(gaps) > 0) & (np.asarray(ts) > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive samples")
    coeffs = np.polyfit(np.log(np.asarray(ts, dtype=float)[mask]), np.log(np.asarray(gaps)[mask]), 1)
    return float(coeffs[0])


def sgd_variance_bound(
    model: LossModel, part, batch_size: int, radius: float, center: np.ndarray
) -> float:
    """Certified bound on E|g_batch - grad F_i|^2 over the ball |w - center| <= radius.

    Uses the exact without-replacement variance of the batch mean plus a per-point
    Lipschitz bound on the gradient deviations; quadratic losses only.
    """
    if model.kind != LINEAR_REGRESSION:
        raise ValueError("variance bound implemented for quadratics only")
    n = part.n_points
    if batch_size >= n:
        return 0.0
    data = device_data(model, [[part]])
    h_i = data.H[0]
    g_center = grad_full(model, center[None], data)[0]
    total = 0.0
    for x, y in zip(part.X, part.y):
        c_b = float(np.linalg.norm(grad_point(model, center, x, y) - g_center))
        l_b = float(np.max(np.abs(np.linalg.eigvalsh(np.outer(x, x) - h_i))))
        total += (c_b + l_b * radius) ** 2
    return float((1.0 - batch_size / n) / (batch_size * (n - 1)) * total)


def certificate_report(path, constants: Thm2Constants, measured, t0: int = 0):
    """JSON report: the constant set plus per-t (measured, bound) pairs."""
    holds, ts, bound = envelope_check(measured, constants.nu, constants.alpha, t0)
    payload = {
        "constants": asdict(constants),
        "per_t": [
            {"t": int(t), "measured": float(m), "bound": float(b)}
            for t, m, b in zip(ts, measured, bound)
        ],
        "holds": holds,
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return payload

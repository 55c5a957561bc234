"""Shared builders for the test suite."""

from __future__ import annotations

import copy
import hashlib
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tthf import control, data, experiment, losses, topology, trainer

warnings.filterwarnings("ignore", message="distance .* below reference")

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and its runtime bounded
settings.register_profile("tthf", derandomize=True, deadline=None, max_examples=30, database=None)
# HYPOTHESIS_PROFILE=ci draws ten times the examples, for the oracle checks in CI
settings.register_profile("ci", settings.get_profile("tthf"), max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tthf"))


def pytest_addoption(parser):
    # the suite runs a hypothesis slice of the config fuzz, CI all of its ~2300 draws
    parser.addoption(
        "--full-config-fuzz", action="store_true",
        help="run every schedule, leaf and value of the config fuzz in test_experiment.py",
    )
    # the suite checks one pool seed per benchmark workload, CI all 192 runs
    parser.addoption(
        "--pool-bytes", action="store_true",
        help="check the output bytes of every pool seed in tests/data/pool_digests.json",
    )


def pool_run_digests(config: dict, seed: int, out_dir) -> dict:
    """SHA-256 of the trace CSV, control CSV and summary.json that config's
    one-seed run_experiment writes to out_dir."""
    out = Path(out_dir)
    experiment.run_experiment({**copy.deepcopy(config), "seeds": [seed], "output_dir": str(out)})
    names = {"trace": f"trace_seed{seed}.csv", "control": f"trace_seed{seed}_control.csv", "summary": "summary.json"}
    return {key: hashlib.sha256((out / name).read_bytes()).hexdigest() for key, name in names.items()}


def one_device(model, part):
    """A network of one device that holds `part`."""
    return losses.DeviceData(model, [[part]])


def local_loss(model, w, part):
    """The device's own loss F_i(w): the device mean of a one-device network."""
    return losses.device_mean_loss(model, w, one_device(model, part))


def local_grad(model, w, part):
    """The exact gradient of the device's own loss at the one model w."""
    return losses.grad_full(model, w[None], one_device(model, part))[0]


def local_sgd(model, w, data, batch_size, rng):
    """The mini-batch gradient at w of a one-device network `data`, drawn with rng.choice."""
    return losses.grad_batches(model, w[None], data, np.arange(1), batch_size, [rng])[0]


def scalar_gamma_rounds(eta_t, phi, s_c, upsilon, lambda_c, gamma_max=None):
    """The D2D round rule for one cluster in Python scalars: the oracle of the array rule.

    The fewest rounds whose certificate lambda_c ** rounds * sqrt(s_c) * upsilon
    meets eta_t * phi, from a ceil-log guess and two guards that step it while
    Python's float ** says the guess is off. A lambda_c of 0 guesses 0 rounds.
    """
    if not 0.0 <= lambda_c < 1.0:
        raise ValueError(f"lambda_c={lambda_c} must lie in [0, 1)")
    if upsilon < 0:
        raise ValueError("upsilon must be non-negative")
    target = eta_t * phi
    scale = math.sqrt(s_c) * upsilon
    if upsilon == 0.0 or scale <= target:
        return 0
    if target <= 0.0:
        if gamma_max is None:
            raise ValueError("consensus error target must be positive")
        return gamma_max
    gamma = 0 if lambda_c == 0.0 else max(math.ceil(math.log(target / scale) / math.log(lambda_c)), 0)
    while lambda_c**gamma * scale > target:
        gamma += 1
    while gamma > 0 and lambda_c ** (gamma - 1) * scale <= target:
        gamma -= 1
    if gamma_max is not None:
        gamma = min(gamma, gamma_max)
    return int(gamma)


def fit_predictor_oracle(upsilon_history, gamma_history):
    """The divergence predictor of one cluster, branch by branch: the oracle of
    control.fit_predictor.

    Collects the transitions ups[i] -> ups[i+1] of each branch (idle where
    gamma_history[i] is 0) and fits [x, 1] to them with lstsq; a branch with
    fewer than two transitions keeps the identity line (1, 0) and is flagged.
    Returns (A, B, a, b, idle_fallback, active_fallback).
    """
    lines, fallbacks = [], []
    for idle in (True, False):
        steps = [i for i, g in enumerate(gamma_history) if (g == 0) == idle]
        fallbacks.append(len(steps) < 2)
        if fallbacks[-1]:
            lines += [1.0, 0.0]
            continue
        design = np.column_stack([[float(upsilon_history[i]) for i in steps], np.ones(len(steps))])
        targets = np.array([float(upsilon_history[i + 1]) for i in steps])
        sol, *_ = np.linalg.lstsq(design, targets, rcond=None)
        lines += [float(sol[0]), float(sol[1])]
    return (*lines, *fallbacks)


def startup_oracle(task, config, rng):
    """The adaptive start-up with a feasibility_check per attempt: the oracle of
    control.start.

    The auto xi prices one check at T and xi = 1; each attempt then checks
    (T, xi) afresh, doubling T after each of the first 3 failures and loosening
    xi by 1.25 after each of the next 3, and the 7th failure raises.
    """
    w0 = task.w0
    zeta = config.zeta_frac * 2.0 * task.beta
    omega = config.zeta_frac
    gamma_step = config.gamma_over_mu / task.mu
    sigma2, delta_prime, g_bar = control._probe(
        task, np.tile(w0, (task.n_devices, 1)), w0, zeta, config.sigma_batch, rng
    )
    grad0_sq = float(g_bar @ g_bar)
    T = config.T
    alpha = control.select_alpha(
        task.mu, task.beta, gamma_step, omega, config.tau_max,
        cap=config.alpha_cap, margin=config.alpha_margin,
    )

    def check(T, xi):
        return control.feasibility_check(
            T, xi, config.tau_max, task.mu, task.beta, gamma_step, alpha, omega, sigma2, delta_prime, grad0_sq,
        )

    if config.xi is None:
        base = max(check(T, 1.0).terms)
        if base <= 0.0:
            base = 1.0
        xi = base / (T + alpha) * config.xi_boost
    else:
        xi = config.xi
    for attempt in range(7):
        feas = check(T, xi)
        if feas.passed:
            break
        if attempt < 3:
            T *= 2
        else:
            xi *= 1.25
    if not feas.passed:
        raise control.InfeasibleError(f"loss target infeasible after relaxation (binding term: {feas.binding})")
    phi = control.phi_max(
        feas.nu_max, config.tau_max, task.mu, task.beta, gamma_step, alpha, omega, sigma2, delta_prime,
    )
    return control.ControlState(
        zeta=zeta, delta_prime=delta_prime, sigma2=sigma2, gamma_step=gamma_step,
        alpha=alpha, phi=phi, nu_max=feas.nu_max, xi=xi, T=T,
    )


def accuracy_oracle(model, w, data, n_labels):
    """The accuracy of the one model w on the stacked data, label by label: the
    oracle of losses.accuracy.

    The SVM predicts the +1 target where X @ w >= 0. Regression predicts the
    argmin over labels 0..n_labels-1 of the distances from each score to every
    label's mean score, a label that no point carries being infinitely far.
    """
    scores, labels = data.X @ w, data.labels
    if model.kind == losses.SQUARED_HINGE_SVM:
        return float(np.mean((scores >= 0) == (data.y > 0)))
    class_scores = np.array(
        [scores[labels == l].mean() if np.any(labels == l) else np.inf for l in range(n_labels)]
    )
    predicted = np.argmin(np.abs(scores[:, None] - class_scores[None, :]), axis=1)
    return float(np.mean(predicted == labels))


def random_connected_adjacency(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random spanning tree plus extra edges; always connected."""
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for i in range(1, n):
        j = order[rng.integers(0, i)]
        adj[order[i], j] = adj[j, order[i]] = True
    extra = rng.integers(0, n)
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            adj[i, j] = adj[j, i] = True
    return adj


def random_mixing_matrix(rng: np.random.Generator, n: int):
    """(V, adjacency, lambda_c) for a random connected graph."""
    adj = random_connected_adjacency(rng, n)
    max_deg = int(adj.sum(axis=1).max())
    d = rng.uniform(0.2, 0.95) / max_deg
    V = topology.consensus_matrix(adj, d)
    return V, adj, topology.spectral_radius(V)


def metropolis_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Metropolis weights 1 / (1 + the larger degree) on each link, the rest on the
    diagonal: symmetric and doubly stochastic, with a node's link weights unequal."""
    deg = adjacency.sum(axis=1)
    V = np.where(adjacency, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    V[np.diag_indices(len(V))] = 1.0 - V.sum(axis=1)
    return V


def effective_matrix(V: np.ndarray, lost_edges) -> np.ndarray:
    """Lossy-gossip oracle: the mixing matrix for one round after removing lost links.

    A lost link's weight folds back onto both endpoint diagonals, so the result
    stays symmetric and doubly stochastic.
    """
    V_eff = V.copy()
    for i, j in lost_edges:
        w = V_eff[i, j]
        V_eff[i, j] = 0.0
        V_eff[j, i] = 0.0
        V_eff[i, i] += w
        V_eff[j, j] += w
    return V_eff


def build_cluster(index, cluster_size, field_m, params, d_c, seed, max_attempts=100):
    """One cluster placed one layout at a time, re-seeded until its graph is
    connected: the oracle of topology.build_network's stacked passes."""
    if cluster_size < 1:
        raise ValueError("need at least one device")
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index, attempt, 0x70B0]))
        positions = rng.uniform(0.0, field_m, size=(cluster_size, 2))
        link_outage = topology.link_outage_matrix(positions, params)
        adjacency = topology.build_graph(link_outage, params)
        if cluster_size == 1 or topology.is_connected(adjacency):
            V = topology.consensus_matrix(adjacency, topology.mixing_step(adjacency, d_c))
            lambda_c = topology.spectral_radius(V) if cluster_size > 1 else 0.0
            return topology.ClusterSpec(index, positions, adjacency, V, lambda_c, link_outage)
    raise topology.DisconnectedGraphError(
        f"cluster {index}: no connected layout after {max_attempts} placements"
    )


def build_network_oracle(n_clusters, cluster_size, field_m, params,
                         d_c=topology.DEFAULT_MIXING_STEP, seed=0, max_attempts=100):
    """build_network as one build_cluster call per cluster, in index order."""
    return [
        build_cluster(c, cluster_size, field_m, params, d_c, seed, max_attempts)
        for c in range(n_clusters)
    ]


def build_small_task(
    mode="extreme",
    n_clusters=4,
    cluster_size=3,
    m=4,
    n_labels=4,
    per_label=60,
    separation=2.0,
    reg=0.5,
    kind=losses.LINEAR_REGRESSION,
    batch_size=None,
    seed=3,
    field_m=50.0,
    eval_accuracy=False,
):
    ds = data.gen_synthetic(m, n_labels, per_label, separation, seed)
    model = losses.LossModel(kind=kind, reg=reg, dim=m)
    n_dev = n_clusters * cluster_size
    flat = data.partition(ds, n_dev, data.PartitionPlan(mode, seed=seed + 1), kind=kind)
    clusters = topology.build_network(
        n_clusters, cluster_size, field_m, topology.ChannelParams(), seed=seed + 2
    )
    parts = [flat[i * cluster_size : (i + 1) * cluster_size] for i in range(n_clusters)]
    return trainer.make_task(model, clusters, parts, batch_size=batch_size, eval_accuracy=eval_accuracy)


@pytest.fixture(scope="session")
def small_task():
    return build_small_task()

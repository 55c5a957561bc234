"""D2D consensus rounds, consensus-error measurement, and the contraction certificate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .topology import graph_diameter


@dataclass
class OutagePolicy:
    """Per-round Rayleigh packet loss on each undirected link.

    link_outage[i, j] is the Bernoulli loss probability of edge (i, j); losses are
    symmetric per round (channel reciprocity).
    """

    enabled: bool
    link_outage: Optional[np.ndarray] = None


def effective_matrix(V: np.ndarray, lost_edges) -> np.ndarray:
    """Mixing matrix for one round after removing lost links.

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


def run_consensus(
    w_tilde: np.ndarray,
    V: np.ndarray,
    gamma: int,
    outage: Optional[OutagePolicy] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Apply `gamma` rounds of gossip mixing to the rows of w_tilde."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0:
        return w_tilde.copy()
    z = w_tilde
    lossless = outage is None or not outage.enabled
    if not lossless and rng is None:
        raise ValueError("outage-enabled consensus needs an rng")
    n = V.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if V[i, j] != 0.0]
    for _ in range(gamma):
        if lossless:
            z = V @ z
        else:
            probs = np.array([outage.link_outage[i, j] for i, j in edges])
            lost_mask = rng.random(len(edges)) < probs
            lost = [e for e, m in zip(edges, lost_mask) if m]
            z = effective_matrix(V, lost) @ z
    return z


def consensus_error(w: np.ndarray, w_tilde: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-device error norms against the intermediate-model average, and the cluster RMS."""
    center = w_tilde.mean(axis=0)
    errs = np.linalg.norm(w - center, axis=1)
    return errs, float(np.sqrt(np.mean(errs**2)))


def divergence_exact(w_tilde: np.ndarray) -> float:
    """Max pairwise distance between intermediate device models."""
    if w_tilde.shape[0] < 2:
        return 0.0
    diff = w_tilde[:, None, :] - w_tilde[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


def divergence_estimate(
    w_tilde: np.ndarray, adjacency: np.ndarray, rounds: Optional[int] = None
) -> float:
    """Norm-gap divergence estimate via scalar max/min flooding.

    Each device floods |w_tilde_i| to its neighbors. Flooding only copies the
    extremes it has seen, so after diameter-many rounds on a connected graph
    every node holds the exact global max and min, and the estimate is their
    difference (`flooding_extremes` simulates the rounds). Always a lower bound
    on the exact divergence. Passing `rounds` (the cluster's diameter) vouches
    that the graph is connected; without it the diameter is computed, which
    raises on a disconnected graph.
    """
    if rounds is None:
        graph_diameter(adjacency)  # raises if disconnected
    norms = np.linalg.norm(w_tilde, axis=1)
    return float(norms.max() - norms.min())


def flooding_extremes(w_tilde: np.ndarray, adjacency: np.ndarray, rounds: int):
    """Per-node (max, min) knowledge after the given number of flooding rounds."""
    n = w_tilde.shape[0]
    norms = np.linalg.norm(w_tilde, axis=1)
    known_max = norms.copy()
    known_min = norms.copy()
    for _ in range(rounds):
        new_max = known_max.copy()
        new_min = known_min.copy()
        for i in range(n):
            nbrs = np.flatnonzero(adjacency[i])
            if nbrs.size:
                new_max[i] = max(known_max[i], known_max[nbrs].max())
                new_min[i] = min(known_min[i], known_min[nbrs].min())
        known_max, known_min = new_max, new_min
    return known_max, known_min


def lemma1_bound(lambda_c: float, gamma: int, s_c: int, upsilon: float) -> float:
    """Certified cap on any device's consensus error: lambda^Gamma * sqrt(s) * Upsilon."""
    if lambda_c < 0 or not lambda_c < 1:
        raise ValueError("lambda_c must lie in [0, 1)")
    if gamma < 0 or s_c < 1 or upsilon < 0:
        raise ValueError("gamma, s_c, upsilon must be non-negative (s_c >= 1)")
    return float(lambda_c**gamma * np.sqrt(s_c) * upsilon)

"""D2D consensus rounds, consensus-error measurement, and the contraction certificate."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class OutagePolicy:
    """Per-round Rayleigh packet loss on each undirected link.

    link_outage[i, j] is the Bernoulli loss probability of edge (i, j); losses are
    symmetric per round (channel reciprocity).
    """

    enabled: bool
    link_outage: Optional[np.ndarray] = None


# one entry per (cluster matrix, round count) or (cluster matrix, outage matrix)
# in use; a topology refresh brings new bytes, so stale entries age out instead
# of being invalidated
_CACHE_SIZE = 1024
_pairs = functools.lru_cache(maxsize=None)(functools.partial(np.triu_indices, k=1))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_power(V_bytes: bytes, n: int, gamma: int) -> np.ndarray:
    """V^gamma for the n x n matrix with these bytes; read-only, as callers share it."""
    V = np.frombuffer(V_bytes, dtype=float).reshape(n, n)
    power = np.linalg.matrix_power(V, gamma)
    power.flags.writeable = False
    return power


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_edges(V_bytes: bytes, outage_bytes: bytes, n: int) -> tuple:
    """Edge table of the n x n matrix with these bytes: the (i < j) endpoint pairs
    of its nonzero entries in row-major order, and each edge's outage probability.

    The pairs are a tuple and the probabilities a read-only array, as callers share them.
    """
    V = np.frombuffer(V_bytes, dtype=float).reshape(n, n)
    rows, cols = np.nonzero(np.triu(V, 1))
    probs = np.frombuffer(outage_bytes, dtype=float).reshape(n, n)[rows, cols]
    probs.flags.writeable = False
    return tuple(zip(rows.tolist(), cols.tolist())), probs


def run_consensus(
    w_tilde: np.ndarray,
    V: np.ndarray,
    gamma: int,
    outage: Optional[OutagePolicy] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Apply `gamma` rounds of gossip mixing to the rows of w_tilde.

    Lossless rounds are one multiply by the cached V^gamma. Lossy rounds draw
    every round's link losses from rng in one block, one uniform per edge in
    (i < j) row-major order, round after round. A round that lost no link
    multiplies by V; otherwise each lost link's weight folds back onto both
    endpoint diagonals, in edge order, which keeps the round's matrix symmetric
    and doubly stochastic.

    Every product is `np.dot`: one BLAS call without the generalized-ufunc
    dispatch of `@`, with the bits of `@` (TestGossipProductOracle in
    tests/test_consensus.py holds this). The call stays one per cluster:
    acceptance criteria 1-3 call it on one cluster, and perfbench counts one
    call per cluster and step.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0:
        return w_tilde.copy()
    V = np.ascontiguousarray(V, dtype=float)
    n = V.shape[0]
    if outage is None or not outage.enabled:
        return np.dot(_cached_power(V.tobytes(), n, gamma), w_tilde)
    if rng is None:
        raise ValueError("outage-enabled consensus needs an rng")
    link = np.ascontiguousarray(outage.link_outage, dtype=float)
    edges, probs = _cached_edges(V.tobytes(), link.tobytes(), n)
    z = w_tilde
    for lost in (rng.random((gamma, len(edges))) < probs).tolist():
        if True not in lost:
            z = np.dot(V, z)
            continue
        V_round = V.copy()
        for (i, j), lost_link in zip(edges, lost):
            if lost_link:
                w = V_round[i, j]
                V_round[i, j] = 0.0
                V_round[j, i] = 0.0
                V_round[i, i] += w
                V_round[j, j] += w
        z = np.dot(V_round, z)
    return z


def consensus_error(w: np.ndarray, w_tilde: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-device error norms against the intermediate-model average, and the cluster RMS.

    Axes before the last two are batch axes: (..., s, d) inputs give (..., s)
    norms and one RMS per batch entry (a float for 2-D inputs).
    """
    center = w_tilde.mean(axis=-2, keepdims=True)
    errs = np.linalg.norm(w - center, axis=-1)
    rms = np.sqrt(np.mean(errs**2, axis=-1))
    return errs, float(rms) if rms.ndim == 0 else rms


def divergence_exact(w_tilde: np.ndarray):
    """Max pairwise distance between intermediate device models.

    Axes before the last two are batch axes: (..., s, d) input gives one
    distance per batch entry (a float for 2-D input). The i < j pairs and one root
    after the max give the all-pairs value: (a-b)**2 == (b-a)**2, sqrt is monotone.
    """
    if w_tilde.shape[-2] < 2:
        out = np.zeros(w_tilde.shape[:-2])
    else:
        i, j = _pairs(w_tilde.shape[-2])
        out = np.sqrt(((w_tilde[..., i, :] - w_tilde[..., j, :]) ** 2).sum(axis=-1).max(axis=-1))
    return float(out) if out.ndim == 0 else out


def divergence_estimate(w_tilde: np.ndarray):
    """Norm-gap divergence estimate: the largest minus the smallest device model norm.

    Each device floods |w_tilde_i| to its neighbours, and flooding only copies
    the extremes it has seen, so after s-1 rounds on a connected cluster of s
    devices every device holds the exact max and min; the estimate is their
    difference. Always a lower bound on the exact divergence. Axes before the
    last two are batch axes, as in `divergence_exact`.
    """
    norms = np.linalg.norm(w_tilde, axis=-1)
    out = norms.max(axis=-1) - norms.min(axis=-1)
    return float(out) if out.ndim == 0 else out


def lemma1_bound(lambda_c: float, gamma: int, s_c: int, upsilon: float) -> float:
    """Certified cap on any device's consensus error: lambda^Gamma * sqrt(s) * Upsilon."""
    if lambda_c < 0 or not lambda_c < 1:
        raise ValueError("lambda_c must lie in [0, 1)")
    if gamma < 0 or s_c < 1 or upsilon < 0:
        raise ValueError("gamma, s_c, upsilon must be non-negative (s_c >= 1)")
    return float(lambda_c**gamma * np.sqrt(s_c) * upsilon)

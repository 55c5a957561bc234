"""Shared builders for the test suite."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import settings

from tthf import data, losses, topology, trainer

warnings.filterwarnings("ignore", message="distance .* below reference")

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and its runtime bounded
settings.register_profile("tthf", derandomize=True, deadline=None, max_examples=30, database=None)
settings.load_profile("tthf")


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
    return trainer.make_task(
        model, clusters, parts, batch_size=batch_size, n_labels=n_labels, eval_accuracy=eval_accuracy
    )


@pytest.fixture(scope="session")
def small_task():
    return build_small_task()

"""Device placement, wireless channel, D2D graphs, and consensus matrices.

Graphs are built from the outage rule applied to the expected (Rayleigh-averaged)
SNR; per-round packet loss during consensus draws against the same outage
probability, link by link. The per-cluster functions also take leading batch
axes: a (..., s, s) stack holds one matrix per cluster, built in one pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_MIXING_STEP = 1.0 / 8.0


class DisconnectedGraphError(RuntimeError):
    """Cluster graph is disconnected; the consensus contraction certificate fails."""


@dataclass(frozen=True)
class ChannelParams:
    """Wireless D2D channel constants (dB quantities stored as given)."""

    noise_psd_dbm_hz: float = -173.0
    bandwidth_hz: float = 1e6
    tx_power_dbm: float = 24.0
    pathloss_ref_db: float = -30.0
    pathloss_exp: float = 3.75
    ref_dist_m: float = 1.0
    rate_bps: float = 14e6
    outage_threshold: float = 0.05

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.outage_threshold < 1:
            raise ValueError("outage threshold must lie in (0, 1)")
        if self.ref_dist_m <= 0:
            raise ValueError("reference distance must be positive")
        if self.rate_bps < 0:
            raise ValueError("rate must be >= 0")


def expected_snr(params: ChannelParams, distance_m):
    """Linear expected SNR at the given distance (Rayleigh power averaged to 1).

    Elementwise on an array of distances; a scalar distance gives a float.
    """
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0):
        raise ValueError("distance must be positive")
    if np.any(distance_m < params.ref_dist_m):
        warnings.warn(
            f"distance {distance_m.min()} m below reference {params.ref_dist_m} m; clamping",
            stacklevel=2,
        )
        distance_m = np.maximum(distance_m, params.ref_dist_m)
    pathloss_db = params.pathloss_ref_db - 10.0 * params.pathloss_exp * np.log10(
        distance_m / params.ref_dist_m
    )
    noise_dbm = params.noise_psd_dbm_hz + 10.0 * np.log10(params.bandwidth_hz)
    snr_db = params.tx_power_dbm + pathloss_db - noise_dbm
    return _scalar_or_array(10.0 ** (snr_db / 10.0))


def outage_prob(params: ChannelParams, snr_linear):
    """Probability that the instantaneous Rayleigh capacity falls below the rate.

    Elementwise on an array of SNRs; a scalar SNR gives a float.
    """
    snr_linear = np.asarray(snr_linear, dtype=float)
    if np.any(snr_linear <= 0):
        raise ValueError("snr must be positive")
    spectral_eff = params.rate_bps / params.bandwidth_hz
    return _scalar_or_array(1.0 - np.exp(-(2.0**spectral_eff - 1.0) / snr_linear))


def _scalar_or_array(x):
    # numpy arithmetic on 0-d arrays yields numpy scalars, so a scalar input
    # takes scalar arithmetic throughout and ends here as a Python float or bool
    return x if np.ndim(x) else x.item()


def link_outage_matrix(positions: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Per-pair outage probability from the expected SNR at the pair distance.

    Pairs closer than the pathloss reference distance (including co-located
    devices) are evaluated at the reference distance. The diagonal is zero.
    """
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    dists = np.maximum(np.sqrt((diff**2).sum(axis=-1)), params.ref_dist_m)
    out = outage_prob(params, expected_snr(params, dists))
    np.einsum("...ii->...i", out)[...] = 0.0  # a writable view of each diagonal
    return out


def build_graph(link_outage: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Adjacency with an edge iff the pair's outage probability meets the threshold."""
    adj = link_outage <= params.outage_threshold
    np.einsum("...ii->...i", adj)[...] = False
    return adj


def is_connected(adjacency: np.ndarray):
    """Whether node 0 reaches every node, by squaring the reachability matrix; per matrix of a stack."""
    n = adjacency.shape[-1]
    reach = np.asarray(adjacency, dtype=bool) | np.eye(n, dtype=bool)
    # k squarings cover every walk of length <= 2**k, and walks of n - 1 steps every reachable node
    for _ in range(max(n - 2, 0).bit_length()):
        reach = reach @ reach
    return _scalar_or_array(reach[..., 0, :].all(axis=-1))


def consensus_matrix(adjacency: np.ndarray, d_c) -> np.ndarray:
    """V = I - d_c * L, equal weights; over a stack d_c is one step for all matrices or one per matrix."""
    adjacency = np.asarray(adjacency, dtype=bool)
    degrees = adjacency.sum(axis=-1)
    # (0, 1/D_c) for the largest degree D_c, and (0, 1) without links
    bound = 1.0 / np.maximum(degrees.max(axis=-1, initial=0), 1)
    steps = np.broadcast_to(d_c, bound.shape)
    valid = (0.0 < steps) & (steps < bound)
    if not valid.all():
        i = np.argmin(valid)  # the first matrix it fails
        raise ValueError(f"d_c={steps.flat[i].item()} outside the valid interval (0, {bound.flat[i]:.6g})")
    # diagonal as the explicit complement of the off-diagonal mass keeps row sums
    # at 1 up to a single rounding of the shared partial sum
    V = np.where(adjacency, steps[..., None, None], 0.0)
    np.einsum("...ii->...i", V)[...] = 1.0 - steps[..., None] * degrees
    return V


def mixing_step(adjacency: np.ndarray, d_c: float = DEFAULT_MIXING_STEP):
    """The configured d_c, or 0.9/D_c when d_c >= 1/D_c for the largest degree D_c.

    Any such d_c backs off, not only the default: d_c = 2.5 runs with 0.9/D_c, and a lone
    device, read as D_c = 1, with 0.9. A stack gets one step per matrix, or d_c as given when none does.
    """
    max_degree = np.asarray(adjacency).sum(axis=-1).max(axis=-1, initial=0)
    backoff = d_c >= 1.0 / np.maximum(max_degree, 1)
    return _scalar_or_array(np.where(backoff, 0.9 / np.maximum(max_degree, 1), d_c)) if backoff.any() else d_c


def spectral_radius(V: np.ndarray):
    """Largest |eigenvalue| of V deflated by the averaging projector, per matrix of a stack."""
    n = V.shape[-1]
    lam = np.abs(np.linalg.eigvalsh(V - np.ones((n, n)) / n)).max(axis=-1)
    if np.any(lam >= 1.0 - 1e-12):
        first = lam.flat[np.argmax(lam >= 1.0 - 1e-12)].item()
        raise DisconnectedGraphError(f"spectral radius {first} >= 1; graph is disconnected")
    return _scalar_or_array(lam)


@dataclass
class ClusterSpec:
    """One cluster's geometry, D2D graph, and certified consensus operator."""

    index: int
    positions: np.ndarray
    adjacency: np.ndarray
    V: np.ndarray
    lambda_c: float
    link_outage: np.ndarray

    @property
    def size(self) -> int:
        return self.positions.shape[0]


def build_network(
    n_clusters: int,
    cluster_size: int,
    field_m: float,
    params: ChannelParams,
    d_c: float = DEFAULT_MIXING_STEP,
    seed: int = 0,
    max_attempts: int = 100,
) -> list[ClusterSpec]:
    """Place each cluster's devices and derive its graph, re-seeding it until the graph is connected.

    Attempt a of cluster c draws from SeedSequence([seed, c, a, 0x70B0]). Each attempt is
    one pass over the clusters not yet connected, and the operators one pass over all.
    """
    clusters = range(n_clusters)
    if not clusters:
        return []
    if cluster_size < 1:
        raise ValueError("need at least one device")
    args = (cluster_size, field_m, params, d_c, seed, max_attempts)
    try:
        return _build(clusters, *args)
    except (ValueError, DisconnectedGraphError):
        # a stacked check sees every cluster at once; built one at a time, the
        # lowest-index failing cluster raises its own first error
        for c in clusters:
            _build(range(c, c + 1), *args)
        raise


def _build(clusters: range, cluster_size, field_m, params, d_c, seed, max_attempts) -> list[ClusterSpec]:
    positions = np.empty((len(clusters), cluster_size, 2))
    link_outage = np.empty((len(clusters), cluster_size, cluster_size))
    adjacency = np.empty(link_outage.shape, dtype=bool)
    pending = np.arange(len(clusters))  # stack rows of the clusters not yet connected
    for attempt in range(max_attempts):
        positions[pending] = [
            np.random.default_rng(np.random.SeedSequence([seed, clusters[i], attempt, 0x70B0]))
            .uniform(0.0, field_m, size=(cluster_size, 2))
            for i in pending.tolist()
        ]
        link_outage[pending] = link_outage_matrix(positions[pending], params)
        adjacency[pending] = build_graph(link_outage[pending], params)
        pending = pending[~is_connected(adjacency[pending])]
        if not pending.size:
            break
    else:
        raise DisconnectedGraphError(f"cluster {clusters[pending[0]]}: no connected layout after {max_attempts} placements")
    V = consensus_matrix(adjacency, mixing_step(adjacency, d_c))
    return list(map(ClusterSpec, clusters, positions, adjacency, V, spectral_radius(V).tolist(), link_outage))

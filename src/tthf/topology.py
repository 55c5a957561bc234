"""Device placement, wireless channel, D2D graphs, and consensus matrices.

Graphs are built from the outage rule applied to the expected (Rayleigh-averaged)
SNR; per-round packet loss during consensus draws against the same outage
probability, link by link.
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
    # takes scalar arithmetic throughout and ends here as a float
    return x if np.ndim(x) else float(x)


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def link_outage_matrix(positions: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Per-pair outage probability from the expected SNR at the pair distance.

    Pairs closer than the pathloss reference distance (including co-located
    devices) are evaluated at the reference distance. The diagonal is zero.
    """
    dists = np.maximum(pairwise_distances(positions), params.ref_dist_m)
    out = outage_prob(params, expected_snr(params, dists))
    np.fill_diagonal(out, 0.0)
    return out


def build_graph(link_outage: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Adjacency with an edge iff the pair's outage probability meets the threshold."""
    adj = link_outage <= params.outage_threshold
    np.fill_diagonal(adj, False)
    return adj


def is_connected(adjacency: np.ndarray) -> bool:
    """Whether every node is reachable from node 0, by squaring the reachability matrix."""
    n = adjacency.shape[0]
    reach = np.asarray(adjacency, dtype=bool) | np.eye(n, dtype=bool)
    # k squarings cover every walk of length <= 2**k; walks of n - 1 steps reach
    # every node that any walk reaches
    for _ in range(max(n - 2, 0).bit_length()):
        reach = reach @ reach
    return bool(reach[0].all())


def consensus_matrix(adjacency: np.ndarray, d_c: float) -> np.ndarray:
    """V = I - d_c * L for the common equal-weight construction."""
    adjacency = np.asarray(adjacency, dtype=bool)
    degrees = adjacency.sum(axis=1)
    max_degree = int(degrees.max()) if degrees.size else 0
    if max_degree > 0 and not 0.0 < d_c < 1.0 / max_degree:
        raise ValueError(f"d_c={d_c} outside the valid interval (0, {1.0 / max_degree:.6g})")
    if max_degree == 0 and not 0.0 < d_c < 1.0:
        raise ValueError(f"d_c={d_c} outside the valid interval (0, 1)")
    # diagonal as the explicit complement of the off-diagonal mass keeps row sums
    # at 1 up to a single rounding of the shared partial sum
    n = adjacency.shape[0]
    V = np.where(adjacency, d_c, 0.0)
    np.fill_diagonal(V, 1.0 - d_c * degrees)
    return V


def mixing_step(adjacency: np.ndarray, d_c: float = DEFAULT_MIXING_STEP) -> float:
    """The configured d_c, or 0.9/D_c when d_c >= 1/D_c for the largest degree D_c.

    Any such d_c backs off, not only the default: a configured d_c of 2.5 runs with 0.9/D_c.
    """
    max_degree = int(np.asarray(adjacency).sum(axis=1).max())
    if max_degree > 0 and d_c >= 1.0 / max_degree:
        return 0.9 / max_degree
    return d_c


def spectral_radius(V: np.ndarray) -> float:
    """Largest |eigenvalue| of V deflated by the averaging projector."""
    n = V.shape[0]
    deflated = V - np.ones((n, n)) / n
    eigs = np.linalg.eigvalsh(deflated)
    lam = float(np.max(np.abs(eigs)))
    if lam >= 1.0 - 1e-12:
        raise DisconnectedGraphError(f"spectral radius {lam} >= 1; graph is disconnected")
    return lam


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


def build_cluster(
    index: int,
    cluster_size: int,
    field_m: float,
    params: ChannelParams,
    d_c: float,
    seed: int,
    max_attempts: int = 100,
) -> ClusterSpec:
    """Place devices and derive the graph, re-seeding until the graph is connected."""
    if cluster_size < 1:
        raise ValueError("need at least one device")
    for attempt in range(max_attempts):
        rng_seed = [seed, index, attempt]
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed + [0x70B0]))
        positions = rng.uniform(0.0, field_m, size=(cluster_size, 2))
        link_outage = link_outage_matrix(positions, params)
        adjacency = build_graph(link_outage, params)
        if cluster_size == 1 or is_connected(adjacency):
            step = mixing_step(adjacency, d_c)
            V = consensus_matrix(adjacency, step)
            return ClusterSpec(
                index=index,
                positions=positions,
                adjacency=adjacency,
                V=V,
                lambda_c=spectral_radius(V) if cluster_size > 1 else 0.0,
                link_outage=link_outage,
            )
    raise DisconnectedGraphError(
        f"cluster {index}: no connected layout after {max_attempts} placements"
    )


def build_network(
    n_clusters: int,
    cluster_size: int,
    field_m: float,
    params: ChannelParams,
    d_c: float = DEFAULT_MIXING_STEP,
    seed: int = 0,
    max_attempts: int = 100,
) -> list[ClusterSpec]:
    return [
        build_cluster(c, cluster_size, field_m, params, d_c, seed, max_attempts)
        for c in range(n_clusters)
    ]

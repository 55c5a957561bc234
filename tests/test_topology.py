"""Channel arithmetic, graph construction, and mixing-matrix certificates."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tthf import topology
from tthf.topology import ChannelParams, DisconnectedGraphError

from conftest import random_connected_adjacency, random_mixing_matrix


class TestExpectedSnr:
    def test_hand_db_arithmetic_at_reference(self):
        # 24 dBm + (-30 dB) - (-173 + 60) dBm = 107 dB
        snr = topology.expected_snr(ChannelParams(), 1.0)
        assert 10 * np.log10(snr) == pytest.approx(107.0, abs=1e-9)

    def test_log_distance_law(self):
        params = ChannelParams()
        drop_db = 10 * np.log10(topology.expected_snr(params, 10.0) / topology.expected_snr(params, 20.0))
        assert drop_db == pytest.approx(10 * 3.75 * np.log10(2), abs=1e-9)

    def test_zero_exponent_distance_free(self):
        params = ChannelParams(pathloss_exp=0.0)
        assert topology.expected_snr(params, 2.0) == pytest.approx(
            topology.expected_snr(params, 37.0)
        )

    def test_scalar_gives_float_and_rejects_non_positive(self):
        params = ChannelParams()
        assert type(topology.expected_snr(params, 3.0)) is float
        assert type(topology.outage_prob(params, 1e6)) is float
        with pytest.raises(ValueError, match="distance must be positive"):
            topology.expected_snr(params, 0.0)
        with pytest.raises(ValueError, match="snr must be positive"):
            topology.outage_prob(params, np.array([1.0, -1.0]))

    def test_below_reference_clamps_with_warning(self):
        params = ChannelParams()
        with pytest.warns(UserWarning, match="clamping"):
            close = topology.expected_snr(params, 0.5)
        assert close == pytest.approx(topology.expected_snr(params, 1.0))


class TestOutageProb:
    def test_vanishes_at_high_snr(self):
        assert topology.outage_prob(ChannelParams(), 1e30) < 1e-12

    def test_zero_rate_never_fails(self):
        assert topology.outage_prob(ChannelParams(rate_bps=0.0), 1.0) == 0.0

    def test_monotone_grid_against_direct_formula(self):
        base = ChannelParams()
        rates = np.linspace(1e6, 8e6, 20)
        snrs = np.logspace(3, 7, 20)
        table = np.empty((20, 20))
        for i, rate in enumerate(rates):
            params = ChannelParams(rate_bps=float(rate))
            for j, snr in enumerate(snrs):
                p = topology.outage_prob(params, float(snr))
                direct = 1.0 - np.exp(-(2.0 ** (rate / base.bandwidth_hz) - 1.0) / snr)
                assert p == pytest.approx(direct, rel=1e-12)
                table[i, j] = p
        assert np.all(np.diff(table, axis=0) > 0)  # increasing in rate
        assert np.all(np.diff(table, axis=1) < 0)  # decreasing in snr


def per_pair_outage(positions, params):
    """Scalar channel formulas one pair at a time: the oracle of link_outage_matrix."""
    n = positions.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = max(float(np.hypot(*(positions[i] - positions[j]))), params.ref_dist_m)
            out[i, j] = out[j, i] = topology.outage_prob(params, topology.expected_snr(params, d))
    return out


coords = st.floats(0.0, 80.0, allow_nan=False)


class TestLinkOutageMatrix:
    @given(
        points=st.lists(st.tuples(coords, coords), min_size=1, max_size=9),
        # (device, gap): move the device this close to the one before it, so
        # that co-located and sub-reference pairs occur
        near=st.lists(st.tuples(st.integers(1, 8), st.floats(0.0, 2.0)), max_size=4),
        ref_dist_m=st.floats(0.5, 3.0),
        rate_bps=st.sampled_from([0.0, 1e6, 14e6, 3e7]),
        pathloss_exp=st.floats(2.0, 4.0),
    )
    def test_matches_per_pair_scalar_composition(self, points, near, ref_dist_m, rate_bps, pathloss_exp):
        positions = np.array(points, dtype=float)
        for k, gap in near:
            if k < len(positions):
                positions[k] = positions[k - 1] + [gap, 0.0]
        params = ChannelParams(ref_dist_m=ref_dist_m, rate_bps=rate_bps, pathloss_exp=pathloss_exp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # clamping happens before the channel formulas
            got = topology.link_outage_matrix(positions, params)
        # the array power may differ from the scalar one in the last bits; 1 - exp(-x)
        # turns that into an absolute error of a few ulp of 1
        np.testing.assert_allclose(got, per_pair_outage(positions, params), rtol=1e-13, atol=4e-16)
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_array_equal(np.diag(got), 0.0)


def reachable_by_search(adjacency):
    """Depth-first search from node 0: the oracle of is_connected."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(adjacency[i]):
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


class TestIsConnected:
    @given(n=st.integers(1, 12), density=st.floats(0.0, 0.6), symmetric=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_search_oracle(self, n, density, symmetric, seed):
        adj = np.random.default_rng(seed).random((n, n)) < density
        if symmetric:
            adj |= adj.T
        assert topology.is_connected(adj) == reachable_by_search(adj)

    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_spanning_trees_are_connected(self, n, seed):
        rng = np.random.default_rng(seed)
        adj = random_connected_adjacency(rng, n)
        assert topology.is_connected(adj)
        if n > 1:  # cutting every edge of one node disconnects it
            cut = int(rng.integers(0, n))
            adj[cut, :] = adj[:, cut] = False
            assert not topology.is_connected(adj)


class TestPlacement:
    def test_default_network_size(self):
        clusters = topology.build_network(25, 5, 50.0, ChannelParams(), seed=0)
        assert len(clusters) == 25
        assert sum(spec.positions.shape[0] for spec in clusters) == 125

    def test_positions_in_field(self):
        for spec in topology.build_network(10, 4, 50.0, ChannelParams(), seed=1):
            assert np.all(spec.positions >= 0) and np.all(spec.positions <= 50.0)

    def test_same_seed_same_layout(self):
        a = topology.build_network(3, 4, 50.0, ChannelParams(), seed=7)
        b = topology.build_network(3, 4, 50.0, ChannelParams(), seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.positions, y.positions)


class TestBuildGraph:
    def test_colocated_devices_complete_graph(self):
        params = ChannelParams()
        positions = np.ones((5, 2)) * 10.0
        adj = topology.build_graph(topology.link_outage_matrix(positions, params), params)
        assert np.all(adj == ~np.eye(5, dtype=bool))

    def test_zero_threshold_empty_graph(self):
        params = ChannelParams(outage_threshold=1e-300)
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        adj = topology.build_graph(topology.link_outage_matrix(positions, params), params)
        assert not adj.any()

    def test_mean_degree_near_two_on_default_config(self):
        params = ChannelParams()
        degrees = []
        for seed in range(100):
            # raw uniform layouts: build_cluster's connectivity retries would bias the degree
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70B0]))
            positions = rng.uniform(0.0, 50.0, size=(5, 2))
            adj = topology.build_graph(topology.link_outage_matrix(positions, params), params)
            degrees.extend(adj.sum(axis=1).tolist())
        assert 1.0 <= np.mean(degrees) <= 3.0


class TestConsensusMatrix:
    def test_three_node_path(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        V = topology.consensus_matrix(adj, 1.0 / 3.0)
        expected = np.array(
            [[2 / 3, 1 / 3, 0], [1 / 3, 1 / 3, 1 / 3], [0, 1 / 3, 2 / 3]]
        )
        np.testing.assert_allclose(V, expected, atol=1e-15)

    def test_row_stochastic(self):
        # the spec's d=1/3 path example sums to one exactly; random steps are
        # allowed a rounding of the shared partial sum
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        V = topology.consensus_matrix(adj, 1.0 / 3.0)
        np.testing.assert_array_equal(V @ np.ones(3), np.ones(3))
        rng = np.random.default_rng(2)
        for _ in range(20):
            V, _, _ = random_mixing_matrix(rng, int(rng.integers(2, 9)))
            n = V.shape[0]
            assert np.max(np.abs(V @ np.ones(n) - 1.0)) <= 2**-50

    def test_symmetric_for_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            V, _, _ = random_mixing_matrix(rng, int(rng.integers(2, 9)))
            np.testing.assert_array_equal(V, V.T)

    def test_step_out_of_range_names_interval(self):
        adj = np.array([[0, 1], [1, 0]], dtype=bool)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            topology.consensus_matrix(adj, 1.5)

    def test_fallback_step_below_degree_cap(self):
        adj = ~np.eye(10, dtype=bool)  # complete graph, max degree 9 > 8
        step = topology.mixing_step(adj, 1.0 / 8.0)
        assert step == pytest.approx(0.9 / 9)
        topology.consensus_matrix(adj, step)  # must be accepted


class TestSpectralRadius:
    def test_three_node_path_eigenvalues(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        V = topology.consensus_matrix(adj, 1.0 / 3.0)
        assert topology.spectral_radius(V) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_complete_graph_closed_form(self):
        eps = 0.01
        adj = ~np.eye(4, dtype=bool)
        V = topology.consensus_matrix(adj, 0.25 - eps)
        assert topology.spectral_radius(V) == pytest.approx(4 * eps, abs=1e-10)

    def test_single_node(self):
        assert topology.spectral_radius(np.array([[1.0]])) == 0.0

    def test_disconnected_graph_rejected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
        V = topology.consensus_matrix(adj, 0.3)
        with pytest.raises(DisconnectedGraphError):
            topology.spectral_radius(V)


def check_mixing_assumptions(V: np.ndarray, adjacency: np.ndarray, atol: float = 1e-12):
    """Oracle: raise unless V satisfies sparsity, row stochasticity, symmetry, and contraction."""
    n = V.shape[0]
    off_graph = ~np.asarray(adjacency, dtype=bool) & ~np.eye(n, dtype=bool)
    if np.any(np.abs(V[off_graph]) > atol):
        raise ValueError("V has nonzero weight on a non-edge")
    if np.max(np.abs(V @ np.ones(n) - 1.0)) > atol:
        raise ValueError("V is not row stochastic")
    if np.max(np.abs(V - V.T)) > atol:
        raise ValueError("V is not symmetric")
    topology.spectral_radius(V)  # raises if >= 1


class TestMixingAssumptions:
    def test_generated_matrices_pass_all_conditions(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            V, adj, lam = random_mixing_matrix(rng, int(rng.integers(2, 9)))
            check_mixing_assumptions(V, adj)
            assert lam < 1.0

    def test_contraction_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            V, _, lam = random_mixing_matrix(rng, n)
            z = rng.standard_normal(n)
            proj = z - z.mean()
            lhs = np.linalg.norm((V - np.ones((n, n)) / n) @ z)
            assert lhs <= lam * np.linalg.norm(proj) + 1e-9

    def test_denser_graphs_contract_faster_on_average(self):
        rng = np.random.default_rng(6)
        sparse_l, dense_l = [], []
        for seed in range(40):
            order = rng.permutation(8)
            ring = np.zeros((8, 8), dtype=bool)
            for i in range(8):
                ring[order[i], order[(i + 1) % 8]] = ring[order[(i + 1) % 8], order[i]] = True
            dense = ring.copy()
            for _ in range(8):
                i, j = rng.integers(0, 8, 2)
                if i != j:
                    dense[i, j] = dense[j, i] = True
            for adj, bucket in ((ring, sparse_l), (dense, dense_l)):
                d = 0.9 / adj.sum(axis=1).max()
                bucket.append(topology.spectral_radius(topology.consensus_matrix(adj, d)))
        assert np.mean(dense_l) < np.mean(sparse_l)


class TestNetworkBuild:
    def test_clusters_are_connected_with_certified_radius(self):
        clusters = topology.build_network(6, 5, 50.0, ChannelParams(), seed=3)
        for spec in clusters:
            assert topology.is_connected(spec.adjacency)
            assert 0 <= spec.lambda_c < 1
            check_mixing_assumptions(spec.V, spec.adjacency)

    def test_benchmark_network_bytes_are_pinned(self):
        # the 25x5 seed-11 network of the benchmark workloads; digest recorded
        # with the per-pair channel loop and the per-node search
        digest = hashlib.sha256()
        for spec in topology.build_network(25, 5, 50.0, ChannelParams(), seed=11):
            digest.update(spec.adjacency.tobytes())
            digest.update(spec.V.tobytes())
        assert digest.hexdigest() == "ec7d57d825e16c6b5c338a6e0331c8369a30343ff3cdfdb2c9981176a010bfda"

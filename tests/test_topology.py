"""Channel arithmetic, graph construction, and mixing-matrix certificates."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tthf import cli, topology
from tthf.topology import ChannelParams, DisconnectedGraphError

from conftest import build_network_oracle, random_connected_adjacency, random_mixing_matrix


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


def mixing_rule_oracle(adjacency, d_c):
    """One cluster's V from the docstrings of mixing_step and consensus_matrix, a node
    at a time in Python floats, or ValueError for a step outside (0, 1/D_c).

    The step is d_c, or 0.9/D_c when d_c >= 1/D_c for the largest degree D_c, a lone
    device (or a graph without links) read as D_c = 1; then V = I - step * L for the
    graph Laplacian L, whose row i holds deg(i) on the diagonal and -1 at each neighbour.
    """
    n = len(adjacency)
    degree = [sum(1 for j in range(n) if j != i and adjacency[i][j]) for i in range(n)]
    D_c = max(max(degree, default=0), 1)
    step = 0.9 / D_c if d_c >= 1.0 / D_c else d_c
    if not 0.0 < step < 1.0 / D_c:
        raise ValueError(f"step {step} outside (0, {1.0 / D_c})")
    V = []
    for i in range(n):
        row = []
        for j in range(n):
            laplacian = degree[i] if i == j else -1.0 if adjacency[i][j] else 0.0
            row.append((1.0 if i == j else 0.0) - step * laplacian)
        V.append(row)
    return V


def random_adjacency(rng, n):
    """A symmetric adjacency without self-links, connected or not, of random density."""
    upper = np.triu(rng.random((n, n)) < rng.random(), 1)
    return upper | upper.T


@pytest.mark.oracle
class TestMixingRuleOracle:
    """mixing_step and consensus_matrix against the scalar rule their docstrings state
    (V = I - d_c L, the 0.9/D_c back-off with a lone device read as D_c = 1, rows
    summing to 1), a node at a time, over random adjacencies, alone and stacked. The
    rule shares no code with them (TestStackedBuildOracle's oracle calls both)."""

    @given(
        n=st.integers(1, 8),
        stack=st.integers(1, 4),
        d_c=st.one_of(
            st.floats(-0.1, 1.5),
            # each 1/D_c itself, where the back-off starts, and steps that are no step
            st.sampled_from([1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6, 1 / 7, 0.0, 1e-14, math.nan]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_v_is_i_minus_the_step_times_the_laplacian(self, n, stack, d_c, seed):
        rng = np.random.default_rng(seed)
        adjacency = np.array([random_adjacency(rng, n) for _ in range(stack)])
        expected = []
        for adj in adjacency:
            try:
                expected.append(mixing_rule_oracle(adj.tolist(), d_c))
            except ValueError:
                expected.append(None)
        for adj, V in zip(adjacency, expected):
            # one cluster alone, and then the stack as build_network passes it
            if V is None:
                with pytest.raises(ValueError, match="d_c="):
                    topology.consensus_matrix(adj, topology.mixing_step(adj, d_c))
                continue
            got = topology.consensus_matrix(adj, topology.mixing_step(adj, d_c))
            assert got.tobytes() == np.array(V).tobytes()
            # each row sums to 1 up to the rounding of its diagonal
            assert all(abs(math.fsum(row) - 1.0) <= 2**-52 for row in V)
        if None in expected:
            with pytest.raises(ValueError, match="d_c="):
                topology.consensus_matrix(adjacency, topology.mixing_step(adjacency, d_c))
        else:
            stacked = topology.consensus_matrix(adjacency, topology.mixing_step(adjacency, d_c))
            assert stacked.tobytes() == np.array(expected).tobytes()


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

    @pytest.mark.parametrize("n_clusters, cluster_size, digests", [
        (25, 5, {
            "positions": "fe5b410662a9f34479ec01b79663adcfd6609e47645da2e45b219a06765c801f",
            "adjacency": "760e4b06fb749effde1d33ff68a434ecae8a81d05483656b7f75152085a86f46",
            "V": "590e1ca63e6de1d1ef5ee603056dc3c64a7ebf8f0dd463468d11be6cb3d6bffe",
            "link_outage": "6a8e2fe7b628ac1e30846dcf0566dc64ed4de25760dd7318724e23321f7dd226",
            "lambda_c": "ff2165f056a304864b319d755442ab76853894b3a9a6642864b3bf661ab96992",
        }),
        (10, 8, {
            "positions": "fd24bd62b226958ddd15e88fb0734e816d69075cfef7ecc81e6c5866a13f320e",
            "adjacency": "690cde2c39e85c809e367d5de1dff7c6a8cc128a2f85959191fe6be9d9c74f16",
            "V": "afa73174e19e734b2d20e9ee3f9e05c0aa7073be3670d4e31609764351570037",
            "link_outage": "5892839c801acd360dd1485392ad007172c81e2848fd702aab3a8e6cbab89f4a",
            "lambda_c": "92a87f7576d25245b10534882739f6a126aeb02e49c3bacfb4073f2cf4f8354f",
        }),
        (5, 3, {
            "positions": "3a7ff2f594717e78d172e76b2c1eab975a1d54a78f3be046e0552b4d34e81e91",
            "adjacency": "f7f34babdd1b2784fdede12635548781ab13d58de8ba04a8624345b2ad619fbd",
            "V": "493f187636cf28c0408c31e29f6bd71fdc31f8b9eb4ba1ca7300ae55d86199bb",
            "link_outage": "8df1f16d515355f5ffbc95a9a95eb5c59b0c78539bc1f12157fffec0e5b42e55",
            "lambda_c": "9df5ef85b800f0ae068cd6327180d1a62fda517a220d069b48b14db92d894a50",
        }),
    ])
    def test_every_field_of_seed_11_networks_is_pinned(self, n_clusters, cluster_size, digests):
        # each field's bytes over all clusters, recorded with the per-cluster
        # build; lossless runs never read link_outage, so only this sees it move
        specs = topology.build_network(n_clusters, cluster_size, 50.0, ChannelParams(), seed=11)
        got = {}
        for name in ("positions", "adjacency", "V", "link_outage"):
            digest = hashlib.sha256()
            for spec in specs:
                digest.update(getattr(spec, name).tobytes())
            got[name] = digest.hexdigest()
        got["lambda_c"] = hashlib.sha256(np.array([spec.lambda_c for spec in specs]).tobytes()).hexdigest()
        assert got == digests


def build_outcome(build, *args):
    """Every field's bytes of each built cluster, or the error's type and message."""
    try:
        specs = build(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return [
        (spec.index, spec.positions.tobytes(), spec.adjacency.tobytes(), spec.V.tobytes(),
         type(spec.lambda_c), np.float64(spec.lambda_c).tobytes(), spec.link_outage.tobytes())
        for spec in specs
    ]


# (n_clusters, cluster_size, field_m, d_c, seed, max_attempts); 3x3 at 60 m
# with one placement connects cluster 0 but not 1 at seed 0, and cluster 1
# but not 0 at seed 5
BUILD_CASES = {
    "d-c-zero-before-a-later-disconnection": (3, 3, 60.0, 0.0, 0, 1),
    "integer-d-c-zero": (3, 3, 60.0, 0, 0, 1),
    "negative-d-c": (3, 3, 60.0, -0.1, 3, 100),
    "nan-d-c": (3, 3, 60.0, math.nan, 3, 100),
    "d-c-too-small-to-certify": (3, 3, 60.0, 1e-14, 3, 100),
    "one-device-d-c-above-1": (3, 1, 60.0, 1.5, 3, 100),
    "disconnection-before-a-later-d-c-error": (3, 3, 60.0, 0.0, 5, 1),
    "lowest-unconnected-cluster-named": (3, 3, 60.0, 0.125, 0, 1),
    "no-placements": (3, 3, 60.0, 0.125, 3, 0),
    "field-too-wide-for-2-placements": (4, 5, 1000.0, 0.125, 0, 2),
    "no-devices": (3, 0, 60.0, 0.125, 3, 100),
    "one-device": (3, 1, 60.0, 0.125, 3, 100),
    # co-located devices: complete graphs of degree 5 and 7, whose backed-off
    # step 0.9/D_c is not 0.9 * (1/D_c)
    "backed-off-step-degree-5": (2, 6, 1.0, 0.5, 3, 100),
    "backed-off-step-degree-7": (2, 8, 1.0, 0.5, 3, 100),
    "no-clusters": (0, 0, 60.0, 0.125, 3, 100),
}
RUNNABLE_BUILDS = {
    "one-device", "one-device-d-c-above-1", "backed-off-step-degree-5", "backed-off-step-degree-7",
}


@pytest.mark.oracle
class TestStackedBuildOracle:
    """build_network's stacked passes, one over the stack of unconnected clusters per
    placement attempt, against conftest.build_cluster one cluster at a time, bit for
    bit (positions, adjacency, V, lambda_c, link_outage), over random shapes, seeds,
    fields wide enough to force retries, steps d_c (invalid ones included) and
    channel constants; a failing build raises the error that the lowest-index
    failing cluster raises alone."""

    @given(
        n_clusters=st.integers(1, 6),
        cluster_size=st.integers(1, 10),
        # wide fields disconnect most layouts, so clusters retry or run out of placements
        field_m=st.floats(1.0, 400.0),
        d_c=st.one_of(st.floats(-0.05, 1.2), st.sampled_from([0, 1e-14, math.nan])),
        seed=st.integers(0, 2**32 - 1),
        max_attempts=st.integers(0, 5),
        ref_dist_m=st.floats(0.5, 5.0),
        pathloss_exp=st.floats(2.0, 4.5),
    )
    def test_matches_per_cluster_builds(
        self, n_clusters, cluster_size, field_m, d_c, seed, max_attempts, ref_dist_m, pathloss_exp
    ):
        params = ChannelParams(ref_dist_m=ref_dist_m, pathloss_exp=pathloss_exp)
        args = (n_clusters, cluster_size, field_m, params, d_c, seed, max_attempts)
        assert build_outcome(topology.build_network, *args) == build_outcome(build_network_oracle, *args)

    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    def test_outcome_and_error_equal_the_per_cluster_builds(self, case):
        n_clusters, cluster_size, field_m, d_c, seed, max_attempts = BUILD_CASES[case]
        args = (n_clusters, cluster_size, field_m, ChannelParams(), d_c, seed, max_attempts)
        expected = build_outcome(build_network_oracle, *args)
        assert build_outcome(topology.build_network, *args) == expected
        if case.startswith("d-c-zero"):
            assert expected == (ValueError, "d_c=0.0 outside the valid interval (0, 0.5)")
        if case.startswith("disconnection"):
            assert expected == (DisconnectedGraphError, "cluster 0: no connected layout after 1 placements")
        if case.startswith("lowest"):
            assert expected == (DisconnectedGraphError, "cluster 1: no connected layout after 1 placements")
        if case == "no-clusters":
            assert expected == []
        if case.startswith("backed-off"):
            assert [spec.V[0, 1] for spec in topology.build_network(*args)] == [0.9 / (args[1] - 1)] * 2
        if case.startswith("one-device"):
            # a lone device backs off from a d_c >= 1 as larger clusters do
            assert [spec.V.tolist() for spec in topology.build_network(*args)] == [[[1.0]]] * 3

    @staticmethod
    def run_config(tmp_path, case):
        n_clusters, cluster_size, field_m, d_c, seed, max_attempts = BUILD_CASES[case]
        cfg = {
            "dataset": {"m": 4, "n_labels": 4, "per_label": 30, "separation": 2.0, "seed": 7},
            "topology": {"n_clusters": n_clusters, "cluster_size": cluster_size, "field_m": field_m,
                         "d_c": d_c, "seed": seed, "max_attempts": max_attempts},
            "schedule": {"T": 10, "tau": 5, "gamma": {"mode": "fixed", "value": 1, "cadence": 5}},
            "step": {"kind": "constant", "eta": 0.02},
            "seeds": [1],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return str(cfg_path)

    @pytest.mark.parametrize("case", sorted(set(BUILD_CASES) - RUNNABLE_BUILDS))
    def test_tthf_run_exits_2_naming_topology(self, tmp_path, capsys, case):
        assert cli.main(["run", self.run_config(tmp_path, case)]) == 2
        assert "config field 'topology" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(RUNNABLE_BUILDS))
    def test_tthf_run_exits_0(self, tmp_path, case):
        assert cli.main(["run", self.run_config(tmp_path, case)]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

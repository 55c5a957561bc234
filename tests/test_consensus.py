"""Gossip-round semantics, error measurement, and the contraction certificate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tthf import consensus, topology
from tthf.consensus import OutagePolicy

from conftest import effective_matrix, random_connected_adjacency, random_mixing_matrix


class TestRunConsensus:
    def test_zero_rounds_bitwise_identity(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 6))
        out = consensus.run_consensus(w, np.eye(4), 0)
        np.testing.assert_array_equal(out, w)
        assert out is not w

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            V, _, _ = random_mixing_matrix(rng, n)
            w = rng.standard_normal((n, int(rng.integers(1, 17))))
            out = consensus.run_consensus(w, V, 7)
            oracle = np.linalg.matrix_power(V, 7) @ w
            np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_many_rounds_reach_average(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        V = topology.consensus_matrix(adj, 1.0 / 3.0)  # lambda = 2/3
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 5))
        out = consensus.run_consensus(w, V, 50)
        target = np.tile(w.mean(axis=0), (3, 1))
        np.testing.assert_allclose(out, target, atol=1e-8)


class TestConsensusError:
    def test_large_gamma_error_vanishes(self):
        rng = np.random.default_rng(3)
        V, _, _ = random_mixing_matrix(rng, 5)
        w = rng.standard_normal((5, 4))
        out = consensus.run_consensus(w, V, 200)
        errs, _ = consensus.consensus_error(out, w)
        assert np.all(errs < 1e-8)

    def test_single_device_zero_error(self):
        w = np.array([[1.0, 2.0, 3.0]])
        errs, rms = consensus.consensus_error(w, w)
        assert errs[0] == 0.0 and rms == 0.0

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(4)
        w_tilde = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 3))
        errs, rms = consensus.consensus_error(w, w_tilde)
        center = w_tilde.mean(axis=0)
        oracle = np.array([np.linalg.norm(w[i] - center) for i in range(6)])
        np.testing.assert_allclose(errs, oracle, atol=1e-12)
        assert rms == pytest.approx(np.sqrt(np.mean(oracle**2)), rel=1e-12)


class TestDivergence:
    def test_identical_rows_zero(self):
        w = np.tile(np.arange(3.0), (4, 1))
        assert consensus.divergence_exact(w) == 0.0

    def test_two_scalar_rows(self):
        assert consensus.divergence_exact(np.array([[0.0], [3.0]])) == 3.0

    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((5, 10))
        brute = max(
            np.linalg.norm(w[i] - w[j]) for i in range(5) for j in range(5)
        )
        assert consensus.divergence_exact(w) == pytest.approx(brute, rel=1e-12)


def flooding_extremes(w_tilde: np.ndarray, adjacency: np.ndarray, rounds: int):
    """Per-node (max, min) knowledge of the model norms after the given flooding rounds."""
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


class TestDivergenceEstimate:
    def test_identical_rows_zero(self):
        assert consensus.divergence_estimate(np.ones((2, 3))) == 0.0

    def test_lower_bounds_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            w = rng.standard_normal((n, 4))
            est = consensus.divergence_estimate(w)
            assert est <= consensus.divergence_exact(w) + 1e-12

    def test_flooding_reaches_extremes_after_diameter_rounds(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            adj = random_connected_adjacency(rng, n)
            w = rng.standard_normal((n, 3))
            # s-1 rounds bound the diameter of any connected cluster of s devices
            known_max, known_min = flooding_extremes(w, adj, n - 1)
            norms = np.linalg.norm(w, axis=1)
            np.testing.assert_allclose(known_max, norms.max(), atol=1e-12)
            np.testing.assert_allclose(known_min, norms.min(), atol=1e-12)
            # the closed form returns node 0's flooded extremes exactly
            expected = known_max[0] - known_min[0]
            assert consensus.divergence_estimate(w) == expected


class TestLemma1Bound:
    def test_zero_rounds_value(self):
        assert consensus.lemma1_bound(0.5, 0, 4, 1.0) == pytest.approx(2.0)

    def test_arithmetic_case(self):
        assert consensus.lemma1_bound(0.5, 3, 1, 8.0) == pytest.approx(1.0)

    def test_certificate_never_violated(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            V, _, lam = random_mixing_matrix(rng, n)
            w = rng.standard_normal((n, int(rng.integers(1, 9))))
            gamma = int(rng.integers(0, 11))
            out = consensus.run_consensus(w, V, gamma)
            errs, _ = consensus.consensus_error(out, w)
            bound = consensus.lemma1_bound(lam, gamma, n, consensus.divergence_exact(w))
            assert errs.max() <= bound + 1e-9


class TestOutages:
    @staticmethod
    def lossy_setup(rng, n=6, p=0.3):
        V, adj, lam = random_mixing_matrix(rng, n)
        link = np.where(adj, p, 0.0)
        return V, OutagePolicy(enabled=True, link_outage=link)

    def test_average_preserved_with_and_without_loss(self):
        rng = np.random.default_rng(10)
        for trial in range(200):
            n = int(rng.integers(2, 8))
            V, policy = self.lossy_setup(rng, n, p=float(rng.uniform(0.1, 0.6)))
            w = rng.standard_normal((n, 4))
            out = consensus.run_consensus(w, V, 5, outage=policy, rng=rng)
            np.testing.assert_allclose(out.mean(axis=0), w.mean(axis=0), atol=1e-10)
            clean = consensus.run_consensus(w, V, 5)
            np.testing.assert_allclose(clean.mean(axis=0), w.mean(axis=0), atol=1e-10)

    def test_effective_matrix_stays_doubly_stochastic(self):
        rng = np.random.default_rng(11)
        V, _, _ = random_mixing_matrix(rng, 6)
        V_eff = effective_matrix(V, [(0, 1), (2, 3)])
        np.testing.assert_allclose(V_eff.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(V_eff.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(V_eff, V_eff.T)
        assert V_eff[0, 1] == 0.0

    def test_fixed_seed_reproduces_outage_pattern(self):
        V, policy = self.lossy_setup(np.random.default_rng(13))
        w = np.random.default_rng(14).standard_normal((6, 3))
        out_a = consensus.run_consensus(w, V, 8, outage=policy, rng=np.random.default_rng(99))
        out_b = consensus.run_consensus(w, V, 8, outage=policy, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(out_a, out_b)


class TestMonotoneContraction:
    def test_max_error_nonincreasing_in_gamma(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            V, _, _ = random_mixing_matrix(rng, n)
            w = rng.standard_normal((n, 3))
            prev = np.inf
            for gamma in range(8):
                out = consensus.run_consensus(w, V, gamma)
                errs, _ = consensus.consensus_error(out, w)
                assert errs.max() <= prev + 1e-12
                prev = errs.max()


def iterated_consensus(w, V, gamma, outage=None, rng=None):
    """Gamma explicit rounds z <- V_round z, building the lossy edge list each round."""
    n = V.shape[0]
    z = w.copy()
    for _ in range(gamma):
        if outage is None:
            z = V @ z
        else:
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if V[i, j] != 0.0]
            probs = np.array([outage.link_outage[i, j] for i, j in edges])
            lost_mask = rng.random(len(edges)) < probs
            z = effective_matrix(V, [e for e, m in zip(edges, lost_mask) if m]) @ z
    return z


batches = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(1, 6)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


class TestBatchedProperties:
    @given(w_tilde=batches, seed=st.integers(0, 2**32 - 1))
    def test_batched_error_and_divergence_equal_per_cluster_calls(self, w_tilde, seed):
        w = w_tilde + np.random.default_rng(seed).standard_normal(w_tilde.shape)
        errs, rms = consensus.consensus_error(w, w_tilde)
        divergence = consensus.divergence_exact(w_tilde)
        assert errs.shape == w.shape[:2] and rms.shape == divergence.shape == w.shape[:1]
        for c in range(w.shape[0]):
            errs_c, rms_c = consensus.consensus_error(w[c], w_tilde[c])
            np.testing.assert_array_equal(errs[c], errs_c)
            assert rms[c] == rms_c and isinstance(rms_c, float)
            div_c = consensus.divergence_exact(w_tilde[c])
            assert divergence[c] == div_c and isinstance(div_c, float)

    @given(w_tilde=batches)
    def test_batched_divergence_estimate_equals_per_cluster_calls(self, w_tilde):
        estimate = consensus.divergence_estimate(w_tilde)
        assert estimate.shape == w_tilde.shape[:1]
        for c in range(w_tilde.shape[0]):
            est_c = consensus.divergence_estimate(w_tilde[c])
            assert estimate[c] == est_c and isinstance(est_c, float)

    @given(n=st.integers(1, 9), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_flooding_oracle_equals_closed_form_after_s_minus_1_rounds(self, n, d, seed):
        rng = np.random.default_rng(seed)
        adj = random_connected_adjacency(rng, n)
        w = rng.standard_normal((n, d))
        known_max, known_min = flooding_extremes(w, adj, n - 1)
        estimate = consensus.divergence_estimate(w)
        for i in range(n):
            assert known_max[i] - known_min[i] == estimate

    @given(n=st.integers(2, 8), gamma=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    def test_cached_power_matches_iterated_rounds(self, n, gamma, seed):
        rng = np.random.default_rng(seed)
        V, _, _ = random_mixing_matrix(rng, n)
        w = rng.standard_normal((n, int(rng.integers(1, 6))))
        out = consensus.run_consensus(w, V, gamma)
        np.testing.assert_allclose(out, iterated_consensus(w, V, gamma), rtol=0, atol=1e-12)
        if gamma:
            power = consensus._cached_power(V.tobytes(), n, gamma)
            assert not power.flags.writeable and not np.shares_memory(out, power)
            first = out.copy()
            out[...] = np.nan
            np.testing.assert_array_equal(consensus.run_consensus(w, V, gamma), first)

    @given(
        n=st.integers(2, 8),
        gamma=st.integers(1, 12),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lossy_rounds_keep_means_and_match_the_per_round_oracle(self, n, gamma, p, seed):
        rng = np.random.default_rng(seed)
        V, adj, _ = random_mixing_matrix(rng, n)
        policy = OutagePolicy(enabled=True, link_outage=np.where(adj, p, 0.0))
        w = rng.standard_normal((n, 3))
        out = consensus.run_consensus(w, V, gamma, outage=policy, rng=np.random.default_rng(seed))
        np.testing.assert_allclose(out.mean(axis=0), w.mean(axis=0), rtol=0, atol=1e-10)
        oracle = iterated_consensus(w, V, gamma, outage=policy, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(out, oracle)


class TestLossyCachedPath:
    """The cached-edge-table lossy path against the per-round oracle, call by call."""

    @given(
        sizes=st.tuples(st.integers(2, 7), st.integers(2, 7)),
        calls=st.integers(2, 5),
        gamma=st.integers(1, 8),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interleaved_clusters_hit_the_cache_and_match_the_oracle(self, sizes, calls, gamma, p, seed):
        rng = np.random.default_rng(seed)
        clusters, models = [], []
        for n in sizes:
            V, adj, _ = random_mixing_matrix(rng, n)
            u = rng.uniform(0.0, p, (n, n))
            link = np.where(adj, np.maximum(u, u.T), 0.0)
            clusters.append((V, OutagePolicy(enabled=True, link_outage=link)))
            models.append(rng.standard_normal((n, 3)))
        gen, oracle_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        for call in range(calls):
            for c, (V, policy) in enumerate(clusters):
                before = consensus._cached_edges.cache_info()
                out = consensus.run_consensus(models[c], V, gamma, outage=policy, rng=gen)
                after = consensus._cached_edges.cache_info()
                oracle = iterated_consensus(models[c], V, gamma, outage=policy, rng=oracle_gen)
                np.testing.assert_array_equal(out, oracle)
                assert gen.bit_generator.state == oracle_gen.bit_generator.state
                if call:
                    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
                models[c] = out

    @given(n=st.integers(1, 6), gamma=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_cluster_without_edges_mixes_nothing_and_draws_nothing(self, n, gamma, seed):
        V = np.eye(n)
        policy = OutagePolicy(enabled=True, link_outage=np.full((n, n), 0.5))
        w = np.random.default_rng(seed).standard_normal((n, 3))
        gen = np.random.default_rng(seed)
        start = gen.bit_generator.state
        out = consensus.run_consensus(w, V, gamma, outage=policy, rng=gen)
        oracle = iterated_consensus(w, V, gamma, outage=policy, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(out, oracle)
        np.testing.assert_array_equal(out, w)
        assert out is not w
        assert gen.bit_generator.state == start

    @given(n=st.integers(3, 8), gamma=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_links_lost_together_fold_in_edge_order(self, n, gamma, seed):
        # Metropolis weights differ from edge to edge (a uniform-step V does
        # not), so the order in which a node's lost links fold onto its
        # diagonal shows in the bits; every link is lost in every round
        rng = np.random.default_rng(seed)
        adj = random_connected_adjacency(rng, n)
        deg = adj.sum(axis=1)
        V = np.where(adj, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
        V[np.diag_indices(n)] = 1.0 - V.sum(axis=1)
        policy = OutagePolicy(enabled=True, link_outage=np.where(adj, 1.0, 0.0))
        w = rng.standard_normal((n, 3))
        out = consensus.run_consensus(w, V, gamma, outage=policy, rng=np.random.default_rng(seed))
        oracle = iterated_consensus(w, V, gamma, outage=policy, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(out, oracle)

    def test_cached_edge_table_is_read_only(self):
        rng = np.random.default_rng(21)
        V, adj, _ = random_mixing_matrix(rng, 6)
        link = np.where(adj, rng.uniform(0.0, 0.5, (6, 6)), 0.0)
        edges, probs = consensus._cached_edges(V.tobytes(), link.tobytes(), 6)
        assert edges == tuple((i, j) for i in range(6) for j in range(i + 1, 6) if V[i, j] != 0.0)
        np.testing.assert_array_equal(probs, [link[i, j] for i, j in edges])
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0] = 1.0
        assert consensus._cached_edges(V.tobytes(), link.tobytes(), 6)[1] is probs

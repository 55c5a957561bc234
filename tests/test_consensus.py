"""Gossip-round semantics, error measurement, and the contraction certificate."""

import numpy as np
import pytest

from tthf import consensus, topology
from tthf.consensus import OutagePolicy

from conftest import random_mixing_matrix


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


class TestDivergenceEstimate:
    def test_identical_rows_zero(self):
        adj = np.array([[0, 1], [1, 0]], dtype=bool)
        assert consensus.divergence_estimate(np.ones((2, 3)), adj) == 0.0

    def test_lower_bounds_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            from conftest import random_connected_adjacency

            adj = random_connected_adjacency(rng, n)
            w = rng.standard_normal((n, 4))
            est = consensus.divergence_estimate(w, adj)
            assert est <= consensus.divergence_exact(w) + 1e-12

    def test_flooding_reaches_extremes_after_diameter_rounds(self):
        rng = np.random.default_rng(7)
        from conftest import random_connected_adjacency

        for _ in range(25):
            n = int(rng.integers(2, 8))
            adj = random_connected_adjacency(rng, n)
            w = rng.standard_normal((n, 3))
            rounds = topology.graph_diameter(adj)
            known_max, known_min = consensus.flooding_extremes(w, adj, rounds)
            norms = np.linalg.norm(w, axis=1)
            np.testing.assert_allclose(known_max, norms.max(), atol=1e-12)
            np.testing.assert_allclose(known_min, norms.min(), atol=1e-12)
            # the closed form returns node 0's flooded extremes exactly
            expected = known_max[0] - known_min[0]
            assert consensus.divergence_estimate(w, adj) == expected
            assert consensus.divergence_estimate(w, adj, rounds=rounds) == expected

    def test_disconnected_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        with pytest.raises(topology.DisconnectedGraphError):
            consensus.divergence_estimate(np.random.default_rng(8).standard_normal((3, 2)), adj)


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
        V_eff = consensus.effective_matrix(V, [(0, 1), (2, 3)])
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

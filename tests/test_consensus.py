"""Gossip-round semantics, error measurement, and the contraction certificate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tthf import consensus, topology
from tthf.consensus import OutagePolicy

from conftest import effective_matrix, metropolis_matrix, random_connected_adjacency, random_mixing_matrix


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


class TestRoundCountInput:
    """A round count is an int or a NumPy integer >= 0 on every path; anything
    else is one ValueError naming gamma, raised before a generator or stream moves."""

    NOT_COUNTS = [2.0, np.float64(2.0), True, np.bool_(True), -1, np.int64(-1), "2"]

    @staticmethod
    def lossy_setup():
        V, link = mixing_table(np.random.default_rng(5), 4, "uniform")
        w = np.random.default_rng(6).standard_normal((4, 3))
        return V, link, w

    @pytest.mark.parametrize("gamma", NOT_COUNTS, ids=repr)
    @pytest.mark.parametrize("path", ["lossless", "lossless-gossip", "lossy-generator", "lossy-stream"])
    def test_what_is_not_a_round_count_is_refused(self, path, gamma):
        V, link, w = self.lossy_setup()
        gen = np.random.default_rng(7)
        start = gen.bit_generator.state
        calls = {
            "lossless": lambda: consensus.run_consensus(w, V, gamma),
            "lossless-gossip": lambda: consensus.run_consensus(w, consensus.ClusterGossip(V), gamma),
            "lossy-generator": lambda: consensus.run_consensus(
                w, V, gamma, outage=OutagePolicy(True, link), rng=gen
            ),
            "lossy-stream": lambda: consensus.run_consensus(
                w, consensus.ClusterGossip(V, link), gamma, rng=consensus.OutageStream(gen, block=16)
            ),
        }
        with pytest.raises(ValueError, match="gamma"):
            calls[path]()
        assert gen.bit_generator.state == start

    def test_a_refused_call_leaves_the_stream_and_its_generator_as_they_were(self):
        V, link, w = self.lossy_setup()
        triangle = topology.consensus_matrix(~np.eye(3, dtype=bool), 0.3)
        streams = [consensus.OutageStream(np.random.default_rng(9), block=20) for _ in range(2)]
        stream, twin = streams
        for s in streams:  # 3 of 5 rounds of 4 links used, then a refresh to 3 links: 2 rounds and 2 left over
            consensus.run_consensus(w, consensus.ClusterGossip(V, link), 3, rng=s)
            consensus.run_consensus(w[:3], consensus.ClusterGossip(triangle, np.full((3, 3), 0.5)), 2, rng=s)
        assert (stream._m, len(stream._u), stream._used) == (3, 8, 2)

        def state(s):
            return s.rng.bit_generator.state, s._used, s._m, s._u.tobytes(), [m.tobytes() for m in s._rounds], s._gossip

        before = state(stream)
        for gamma in self.NOT_COUNTS:
            for gossip in (stream._gossip, consensus.ClusterGossip(V, link)):
                with pytest.raises(ValueError, match="gamma"):
                    consensus.run_consensus(w[: len(gossip.V)], gossip, gamma, rng=stream)
        assert state(stream) == before
        for gamma in (4, 7, 30):
            got = consensus.run_consensus(w[:3], stream._gossip, gamma, rng=stream)
            assert got.tobytes() == consensus.run_consensus(w[:3], twin._gossip, gamma, rng=twin).tobytes()

    @pytest.mark.parametrize("gamma", [3, np.int64(3), np.int32(3), np.uint8(3)], ids=repr)
    def test_integer_round_counts_are_accepted(self, gamma):
        V, link, w = self.lossy_setup()
        assert consensus.run_consensus(w, V, gamma).tobytes() == consensus.run_consensus(w, V, 3).tobytes()
        lossy = [
            consensus.run_consensus(w, V, g, outage=OutagePolicy(True, link), rng=np.random.default_rng(1))
            for g in (gamma, 3)
        ]
        assert lossy[0].tobytes() == lossy[1].tobytes()


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
        errs, mean_sq = consensus.consensus_error(w, w)
        assert errs[0] == 0.0 and mean_sq == 0.0

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(4)
        w_tilde = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 3))
        errs, mean_sq = consensus.consensus_error(w, w_tilde)
        center = w_tilde.mean(axis=0)
        oracle = np.array([np.linalg.norm(w[i] - center) for i in range(6)])
        np.testing.assert_allclose(errs, oracle, atol=1e-12)
        assert mean_sq == pytest.approx(np.mean(oracle**2), rel=1e-12)


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


def all_pairs_divergence(w_tilde):
    """Every ordered pair's distance, the zero diagonal included, then the max."""
    if w_tilde.shape[-2] < 2:
        return np.zeros(w_tilde.shape[:-2])
    diff = w_tilde[..., :, None, :] - w_tilde[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1))


@pytest.mark.oracle
class TestDivergenceExactOracle:
    """The i < j divergence, one matmul by the +-1 pair-difference matrix, against the
    all-pairs subtraction form, NaN entries included."""

    def test_every_size_and_dimension(self):
        rng = np.random.default_rng(3)
        for s in range(1, 10):
            for d in range(1, 41):
                w = rng.standard_normal((3, s, d))
                w[2, rng.integers(s), rng.integers(d)] = np.nan
                np.testing.assert_array_equal(consensus.divergence_exact(w), all_pairs_divergence(w))
                assert consensus.divergence_exact(w[0]) == all_pairs_divergence(w[0])

    @given(
        s=st.integers(1, 9), d=st.integers(1, 40), lead=st.lists(st.integers(1, 3), max_size=2),
        n_nan=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
    )
    def test_pairs_above_the_diagonal_give_the_all_pairs_value(self, s, d, lead, n_nan, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 6)
        w = rng.standard_normal(d) + scale * rng.standard_normal((*lead, s, d))
        w.flat[rng.integers(0, w.size, n_nan)] = np.nan
        got = consensus.divergence_exact(w)
        assert isinstance(got, float) == (not lead)
        np.testing.assert_array_equal(got, all_pairs_divergence(w))

    def test_an_infinite_entry_gives_nan(self):
        # the pair-difference matmul multiplies the infinite entry by 0 in the
        # pairs without its device, where a subtraction would give inf; only
        # the cluster that holds it is NaN
        w = np.random.default_rng(4).standard_normal((2, 4, 3))
        w[0, 1, 2] = np.inf
        with np.errstate(invalid="ignore"):
            got = consensus.divergence_exact(w)
            assert np.isnan(consensus.divergence_exact(w[0]))
        assert np.isnan(got[0]) and got[1] == all_pairs_divergence(w[1])


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

    @pytest.mark.parametrize(
        "gamma, s_c, upsilon", [(2, np.nan, 1.0), (2, 4, np.nan), (np.nan, 4, 1.0), (2, 0, 1.0), (2, 4, -1.0)]
    )
    def test_nan_or_negative_inputs_rejected(self, gamma, s_c, upsilon):
        with pytest.raises(ValueError, match="non-negative"):
            consensus.lemma1_bound(0.5, gamma, s_c, upsilon)

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
        errs, mean_sq = consensus.consensus_error(w, w_tilde)
        divergence = consensus.divergence_exact(w_tilde)
        assert errs.shape == w.shape[:2] and mean_sq.shape == divergence.shape == w.shape[:1]
        for c in range(w.shape[0]):
            errs_c, mean_sq_c = consensus.consensus_error(w[c], w_tilde[c])
            np.testing.assert_array_equal(errs[c], errs_c)
            assert mean_sq[c] == mean_sq_c and isinstance(mean_sq_c, float)
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
    def test_power_matches_iterated_rounds(self, n, gamma, seed):
        rng = np.random.default_rng(seed)
        V, _, _ = random_mixing_matrix(rng, n)
        w = rng.standard_normal((n, int(rng.integers(1, 6))))
        out = consensus.run_consensus(w, V, gamma)
        np.testing.assert_allclose(out, iterated_consensus(w, V, gamma), rtol=0, atol=1e-12)
        if gamma:
            power = consensus.ClusterGossip(V).powers[gamma]
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


def laid_out(rng, s, d, layout):
    """An (s, d) model block in C order, Fortran order, or as every other column of a wider block."""
    if layout == "strided":
        return rng.standard_normal((s, 2 * d))[:, ::2]
    return np.asarray(rng.standard_normal((s, d)), order=layout)


def into_buffer(w, V, gamma, **kwargs):
    """run_consensus written into a fresh NaN-filled out buffer, which the call must return."""
    out = np.full(w.shape, np.nan)
    assert consensus.run_consensus(w, V, gamma, out=out, **kwargs) is out
    return out


@pytest.mark.oracle
class TestGossipProductOracle:
    """run_consensus's ndarray.dot products against the `@` forms, bit for bit, on
    C-ordered, Fortran-ordered and column-strided w, 0 rounds included: the
    lossless call against the power's `@`, the lossy call against the per-round `@`
    rounds, with the same generator state after. with_out writes the result into an
    out buffer, as the engine does, which must return it with the bits of the call
    without out and leave the generator where that call leaves it."""

    @given(
        s=st.integers(1, 9), d=st.integers(1, 8), gamma=st.integers(0, 40),
        layout=st.sampled_from(["C", "F", "strided"]), with_out=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lossless_call_equals_the_power_matmul(self, s, d, gamma, layout, with_out, seed):
        rng = np.random.default_rng(seed)
        V = random_mixing_matrix(rng, s)[0] if s > 1 else np.eye(1)
        w = laid_out(rng, s, d, layout)
        out = consensus.run_consensus(w, V, gamma)
        np.testing.assert_array_equal(out, consensus.ClusterGossip(V).powers[gamma] @ w)
        if with_out:
            assert into_buffer(w, V, gamma).tobytes() == out.tobytes()

    @given(
        s=st.integers(1, 9), d=st.integers(1, 8), gamma=st.integers(0, 40), p=st.floats(0.0, 1.0),
        layout=st.sampled_from(["C", "F", "strided"]), with_out=st.booleans(),
        via=st.sampled_from(["generator", "stream"]), seed=st.integers(0, 2**32 - 1),
    )
    def test_lossy_call_equals_the_per_round_matmul(self, s, d, gamma, p, layout, with_out, via, seed):
        rng = np.random.default_rng(seed)
        V, adj, _ = random_mixing_matrix(rng, s) if s > 1 else (np.eye(1), np.zeros((1, 1), bool), 0.0)
        u = rng.uniform(0.0, p, (s, s))
        policy = OutagePolicy(enabled=True, link_outage=np.where(adj, np.maximum(u, u.T), 0.0))
        w = laid_out(rng, s, d, layout)

        def source():
            gen = np.random.default_rng(seed)
            return consensus.OutageStream(gen, block=16) if via == "stream" else gen

        plain, buffered, oracle_gen = source(), source(), np.random.default_rng(seed)
        out = consensus.run_consensus(w, V, gamma, outage=policy, rng=plain)
        np.testing.assert_array_equal(out, iterated_consensus(w, V, gamma, outage=policy, rng=oracle_gen))
        if with_out:
            assert into_buffer(w, V, gamma, outage=policy, rng=buffered).tobytes() == out.tobytes()
            gens = [g.rng if via == "stream" else g for g in (plain, buffered)]
            assert gens[0].bit_generator.state == gens[1].bit_generator.state
        if via == "generator":
            assert plain.bit_generator.state == oracle_gen.bit_generator.state
        else:
            assert next_uniform(plain) == oracle_gen.random()


@pytest.mark.oracle
class TestLossyCachedPath:
    """The lossy path, with no cache (a direct caller's call builds a new ClusterGossip
    with its links, a D2D epoch one per topology), against the per-round oracle,
    call by call, on model widths 1 to 6."""

    @given(
        sizes=st.tuples(st.integers(2, 7), st.integers(2, 7)),
        d=st.integers(1, 6),
        calls=st.integers(2, 5),
        gamma=st.integers(1, 8),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interleaved_clusters_match_the_oracle(self, sizes, d, calls, gamma, p, seed):
        rng = np.random.default_rng(seed)
        clusters, models = [], []
        for n in sizes:
            V, adj, _ = random_mixing_matrix(rng, n)
            u = rng.uniform(0.0, p, (n, n))
            link = np.where(adj, np.maximum(u, u.T), 0.0)
            clusters.append((V, OutagePolicy(enabled=True, link_outage=link)))
            models.append(rng.standard_normal((n, d)))
        gen, oracle_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(calls):
            for c, (V, policy) in enumerate(clusters):
                out = consensus.run_consensus(models[c], V, gamma, outage=policy, rng=gen)
                oracle = iterated_consensus(models[c], V, gamma, outage=policy, rng=oracle_gen)
                np.testing.assert_array_equal(out, oracle)
                assert gen.bit_generator.state == oracle_gen.bit_generator.state
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
        V = metropolis_matrix(adj)
        policy = OutagePolicy(enabled=True, link_outage=np.where(adj, 1.0, 0.0))
        w = rng.standard_normal((n, 3))
        out = consensus.run_consensus(w, V, gamma, outage=policy, rng=np.random.default_rng(seed))
        oracle = iterated_consensus(w, V, gamma, outage=policy, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(out, oracle)

    def test_edge_table_holds_the_links_in_edge_order(self):
        rng = np.random.default_rng(21)
        V, adj, _ = random_mixing_matrix(rng, 6)
        link = np.where(adj, rng.uniform(0.0, 0.5, (6, 6)), 0.0)
        gossip = consensus.ClusterGossip(V, link)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if V[i, j] != 0.0]
        np.testing.assert_array_equal(gossip.V, V)
        assert list(zip(gossip.rows.tolist(), gossip.cols.tolist())) == edges
        np.testing.assert_array_equal(gossip.probs, [link[i, j] for i, j in edges])


def mixing_table(rng, n, kind):
    """(V, link_outage) of n nodes: a uniform-step or Metropolis V on a random
    connected graph, or no links at all; link losses up to a random bound."""
    if n == 1 or kind == "none":
        return np.eye(n), rng.uniform(0.0, 1.0, (n, n))
    adj = random_connected_adjacency(rng, n)
    if kind == "uniform":
        V = topology.consensus_matrix(adj, rng.uniform(0.2, 0.95) / adj.sum(axis=1).max())
    else:
        V = metropolis_matrix(adj)
    u = rng.uniform(0.0, rng.uniform(0.0, 1.0), (n, n))
    return V, np.where(adj, np.maximum(u, u.T), 0.0)


def unread(stream):
    """The uniforms a stream holds and has not handed out."""
    return stream._u[stream._used * stream._m:]


def next_uniform(stream):
    """The uniform a stream would read next: its first unread one, or its generator's next."""
    kept = unread(stream)
    return kept[0] if len(kept) else stream.rng.random()


@pytest.mark.oracle
class TestOutageStreamOracle:
    """Stream-fed calls against per-call Generator calls and the per-round oracle.

    The losses come from engine-owned OutageStreams, prefetched in blocks and handed
    out from a list of round matrices: 1-4 clusters of one size with their own link
    counts (a link-free one and one-device clusters included), mixed round counts
    (0 and more than a block's rounds included), with or without out=, and a
    topology refresh in mid-block, to gossip of the same or another size; and, on
    bare matrices, 1-3 clusters of their own sizes whose links change mid-stream.
    A refresh re-reads the uniforms the stream kept at the new link count, and each
    stream uses exactly the uniforms those calls drew.
    """

    @given(
        s=st.integers(1, 6),
        s_other=st.integers(1, 6),
        kinds=st.lists(st.sampled_from(["uniform", "metropolis", "none"]), min_size=2, max_size=8),
        steps=st.lists(
            st.tuples(
                st.lists(st.integers(0, 20), min_size=4, max_size=4),
                st.sampled_from(["keep", "keep", "same", "other"]), st.booleans(), st.integers(1, 4),
            ),
            min_size=1, max_size=12,
        ),
        block=st.sampled_from([0, 1, 5, 16, 40, consensus.OUTAGE_BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_size_group_calls_equal_per_cluster_generator_calls(self, s, s_other, kinds, steps, block, seed):
        # one size group of 1-4 clusters with their own link counts (a cluster
        # without links among them, every one of them at s = 1), each with its
        # own stream, called through its ClusterGossip in cluster order each
        # step with mixed round counts, 0 and more than a block's rounds
        # included. A step may first refresh the topology in the middle of a
        # block: each cluster gets a new gossip object, of the same matrices or
        # of its other table, of s_other devices (a stream binds to any size)
        rng = np.random.default_rng(seed)
        C = len(kinds) // 2
        tables = [[mixing_table(rng, s, kinds[2 * c]), mixing_table(rng, s_other, kinds[2 * c + 1])] for c in range(C)]
        current = [0] * C
        gossip = [consensus.ClusterGossip(*tables[c][0]) for c in range(C)]
        streams = [consensus.OutageStream(np.random.default_rng([seed, c]), block) for c in range(C)]
        bare = [np.random.default_rng([seed, c]) for c in range(C)]
        oracle = [np.random.default_rng([seed, c]) for c in range(C)]
        for gammas, refresh, with_out, d in steps:
            if refresh != "keep":
                current = [k ^ (refresh == "other") for k in current]
                gossip = [consensus.ClusterGossip(*tables[c][current[c]]) for c in range(C)]
            for c, gamma in zip(range(C), gammas):
                V, link = tables[c][current[c]]
                policy = OutagePolicy(enabled=True, link_outage=link)
                w = laid_out(rng, len(V), d, "C")
                call = into_buffer if with_out else consensus.run_consensus
                out = call(w, gossip[c], gamma, rng=streams[c])
                assert out.tobytes() == consensus.run_consensus(w, V, gamma, outage=policy, rng=bare[c]).tobytes()
                np.testing.assert_array_equal(out, iterated_consensus(w, V, gamma, outage=policy, rng=oracle[c]))
                assert bare[c].bit_generator.state == oracle[c].bit_generator.state
        # each cluster used exactly the uniforms its bare calls drew
        for stream, gen in zip(streams, bare):
            assert next_uniform(stream) == gen.random()

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        calls=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 12), st.integers(1, 6), st.booleans()),
            min_size=1, max_size=30,
        ),
        kinds=st.lists(st.sampled_from(["uniform", "metropolis", "none"]), min_size=6, max_size=6),
        block=st.sampled_from([0, 1, 5, 16, 40, consensus.OUTAGE_BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stream_calls_equal_per_call_generator_calls(self, sizes, calls, kinds, block, seed):
        # each cluster has two edge tables of its size, and a call may switch
        # to the other one first, as a topology refresh does between intervals
        rng = np.random.default_rng(seed)
        tables = [
            [mixing_table(rng, n, kinds[2 * c]), mixing_table(rng, n, kinds[2 * c + 1])]
            for c, n in enumerate(sizes)
        ]
        current = [0] * len(sizes)
        streams = [consensus.OutageStream(np.random.default_rng([seed, c]), block) for c in range(len(sizes))]
        per_call = [np.random.default_rng([seed, c]) for c in range(len(sizes))]
        oracle = [np.random.default_rng([seed, c]) for c in range(len(sizes))]
        for c, gamma, d, switch in calls:
            c %= len(sizes)
            current[c] ^= switch
            V, link = tables[c][current[c]]
            policy = OutagePolicy(enabled=True, link_outage=link)
            w = rng.standard_normal((sizes[c], d))
            out = consensus.run_consensus(w, V, gamma, outage=policy, rng=streams[c])
            np.testing.assert_array_equal(out, consensus.run_consensus(w, V, gamma, outage=policy, rng=per_call[c]))
            np.testing.assert_array_equal(out, iterated_consensus(w, V, gamma, outage=policy, rng=oracle[c]))
            assert per_call[c].bit_generator.state == oracle[c].bit_generator.state
        # each stream used exactly the uniforms the per-call path drew: the next
        # one it would hand out is the per-call generator's next
        for stream, gen in zip(streams, per_call):
            assert next_uniform(stream) == gen.random()

    def test_a_refresh_carries_part_of_a_round_into_the_next_block(self):
        # 12 uniforms read as 4 rounds of a 3-link table; one round used, the
        # other 9 re-read as 4 rounds of a 2-link path and 1 left over, which
        # opens the next block. The re-read is of the uniforms the stream kept:
        # the call that refreshes and uses those 4 rounds draws nothing
        triangle = topology.consensus_matrix(~np.eye(3, dtype=bool), 0.3)
        path = topology.consensus_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool), 0.3)
        policy = OutagePolicy(enabled=True, link_outage=np.where(np.eye(3, dtype=bool), 0.0, 0.5))
        stream = consensus.OutageStream(np.random.default_rng(8), block=12)
        gen = np.random.default_rng(8)
        w = np.random.default_rng(9).standard_normal((3, 2))
        for V, gamma in [(triangle, 1), (path, 4), (path, 3), (triangle, 1)]:
            before = stream.rng.bit_generator.state
            out = consensus.run_consensus(w, V, gamma, outage=policy, rng=stream)
            np.testing.assert_array_equal(out, iterated_consensus(w, V, gamma, outage=policy, rng=gen))
            if V is path and gamma == 4:
                assert stream.rng.bit_generator.state == before
                assert len(unread(stream)) == 1
        assert next_uniform(stream) == gen.random()


@pytest.mark.oracle
class TestClusterGossipOracle:
    """Calls through a D2D epoch's ClusterGossip, lossless or lossy, 0 rounds included,
    against bare (V, OutagePolicy) calls, bit for bit, with and without out, on
    C-ordered, Fortran-ordered and strided w. A stream ends uniform for uniform where
    the bare calls leave their generator, across switches to new gossip objects
    mid-stream (a refresh, to the same matrices or to others)."""

    @given(
        s=st.integers(1, 9), d=st.integers(1, 8), gamma=st.integers(0, 40),
        layout=st.sampled_from(["C", "F", "strided"]), with_out=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lossless_call_equals_the_bare_call(self, s, d, gamma, layout, with_out, seed):
        rng = np.random.default_rng(seed)
        V = random_mixing_matrix(rng, s)[0] if s > 1 else np.eye(1)
        w = laid_out(rng, s, d, layout)
        gossip = consensus.ClusterGossip(V)
        bare = consensus.run_consensus(w, V, gamma)
        call = into_buffer if with_out else consensus.run_consensus
        for _ in range(2):  # the second call reads the power the first one made
            assert call(w, gossip, gamma).tobytes() == bare.tobytes()
        assert list(gossip.powers) == ([gamma] if gamma else [])

    @given(
        s=st.integers(1, 6),
        d=st.integers(1, 6),
        calls=st.lists(
            st.tuples(
                st.integers(0, 12), st.sampled_from(["keep", "same", "other"]),
                st.sampled_from(["C", "F", "strided"]), st.booleans(),
            ),
            min_size=1, max_size=20,
        ),
        kinds=st.lists(st.sampled_from(["uniform", "metropolis", "none"]), min_size=2, max_size=2),
        block=st.sampled_from([0, 1, 5, 16, 40, consensus.OUTAGE_BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lossy_calls_equal_the_bare_calls(self, s, d, calls, kinds, block, seed):
        # a call may first switch to a new gossip object, as a topology refresh
        # does: of the same matrices ("same") or of the cluster's other table
        rng = np.random.default_rng(seed)
        tables = [mixing_table(rng, s, kind) for kind in kinds]
        current = 0
        gossip = consensus.ClusterGossip(*tables[current])
        stream = consensus.OutageStream(np.random.default_rng([seed, 1]), block)
        bare = np.random.default_rng([seed, 1])
        for gamma, switch, layout, with_out in calls:
            if switch != "keep":
                current ^= switch == "other"
                gossip = consensus.ClusterGossip(*tables[current])
            V, link = tables[current]
            w = laid_out(rng, s, d, layout)
            want = consensus.run_consensus(w, V, gamma, outage=OutagePolicy(True, link), rng=bare)
            call = into_buffer if with_out else consensus.run_consensus
            assert call(w, gossip, gamma, rng=stream).tobytes() == want.tobytes()
        # the stream used exactly the uniforms the bare calls drew
        assert next_uniform(stream) == bare.random()

    def test_the_gossip_holds_read_only_copies(self):
        V, link = mixing_table(np.random.default_rng(5), 4, "uniform")
        lossy, lossless = consensus.ClusterGossip(V, link), consensus.ClusterGossip(V)
        for gossip in (lossy, lossless):
            assert gossip.V.tobytes() == V.tobytes() and not np.shares_memory(gossip.V, V)
            assert not gossip.V.flags.writeable
        assert lossy.probs.tobytes() == link[lossy.rows, lossy.cols].tobytes()
        for edges in (lossy.rows, lossy.cols, lossy.probs):
            assert not edges.flags.writeable
        assert lossy.powers is None and lossless.probs is None
        assert lossless.rows is None and lossless.cols is None

    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("enabled", [False, True], ids=["disabled", "enabled"])
    def test_a_gossip_refuses_an_outage_policy(self, lossy, enabled):
        # the gossip object already fixes whether links are lost
        V, link = mixing_table(np.random.default_rng(6), 3, "uniform")
        gossip = consensus.ClusterGossip(V, link if lossy else None)
        with pytest.raises(ValueError, match="outage=None"):
            consensus.run_consensus(
                np.ones((3, 2)), gossip, 2, outage=OutagePolicy(enabled, link), rng=np.random.default_rng(0)
            )

    @pytest.mark.parametrize(
        "link", [np.full((3, 3), 1.5), np.full((4, 4), 0.1)], ids=["not-a-probability", "not-v-shaped"]
    )
    def test_a_bad_link_matrix_is_refused_when_the_gossip_is_built(self, link):
        V, _, _ = random_mixing_matrix(np.random.default_rng(4), 3)
        with pytest.raises(ValueError, match="link_outage"):
            consensus.ClusterGossip(V, link)


class TestOutagePolicyInput:
    @pytest.mark.parametrize(
        "link",
        [None, np.full((3, 4), 0.1), np.full(3, 0.1), np.full((3, 3), 1.5), np.full((3, 3), -0.1),
         np.where(np.eye(3, dtype=bool), 0.0, np.nan)],
        ids=["missing", "not-square", "one-axis", "above-1", "below-0", "nan"],
    )
    def test_enabled_policy_rejects_what_is_not_a_link_probability_matrix(self, link):
        with pytest.raises(ValueError, match="link_outage"):
            OutagePolicy(enabled=True, link_outage=link)

    def test_disabled_policy_needs_no_links(self):
        assert OutagePolicy(enabled=False).link_outage is None

    def test_link_matrix_of_another_size_than_v_is_rejected(self):
        V, _, _ = random_mixing_matrix(np.random.default_rng(4), 3)
        policy = OutagePolicy(enabled=True, link_outage=np.full((4, 4), 0.1))
        with pytest.raises(ValueError, match="link_outage"):
            consensus.run_consensus(np.ones((3, 2)), V, 2, outage=policy, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("value", [np.nan, 1.5, -0.1], ids=["nan", "above-1", "below-0"])
    def test_link_matrix_changed_in_place_is_checked_when_its_table_is_built(self, value):
        # the policy checked its matrix when it was built; a change made in place
        # afterwards brings new bytes, and the gossip built for them checks
        # them again, whether a bare Generator or an engine stream reads it
        V, adj, _ = random_mixing_matrix(np.random.default_rng(6), 4)
        link = np.where(adj, 0.2, 0.0)
        policy = OutagePolicy(enabled=True, link_outage=link.copy())
        w = np.random.default_rng(7).standard_normal((4, 2))
        # a block of 1024 uniforms: the refused call finds most of it unread
        stream, twin = (consensus.OutageStream(np.random.default_rng(8)) for _ in range(2))
        for rng in (stream, twin):
            consensus.run_consensus(w, V, 2, outage=policy, rng=rng)
        policy.link_outage[...] = value
        for rng in (np.random.default_rng(0), stream):
            with pytest.raises(ValueError, match="link_outage"):
                consensus.run_consensus(w, V, 4, outage=policy, rng=rng)
        # the refused call moved nothing: restored, the stream goes on as its twin
        policy.link_outage[...] = link
        np.testing.assert_array_equal(
            consensus.run_consensus(w, V, 4, outage=policy, rng=stream),
            consensus.run_consensus(w, V, 4, outage=policy, rng=twin),
        )
        assert next_uniform(stream) == next_uniform(twin)

    def test_link_matrix_changed_in_place_after_the_build_moves_no_loss(self):
        # the gossip copies the link probabilities it reads when it is built,
        # so the caller's matrix changed afterwards reaches neither its probs
        # nor its losses
        V, link = mixing_table(np.random.default_rng(9), 5, "uniform")
        w = np.random.default_rng(10).standard_normal((5, 3))
        gossip = consensus.ClusterGossip(V, link)
        probs = gossip.probs.copy()
        want = consensus.run_consensus(w, V, 6, outage=OutagePolicy(True, link.copy()), rng=np.random.default_rng(11))
        link[...] = np.where(V > 0.0, 1.0, 0.0)  # now every link is lost
        assert gossip.probs.tobytes() == probs.tobytes()
        got = consensus.run_consensus(w, gossip, 6, rng=consensus.OutageStream(np.random.default_rng(11)))
        assert got.tobytes() == want.tobytes()
        # the changed matrix loses other links, so a stale read would show
        changed = consensus.run_consensus(w, V, 6, outage=OutagePolicy(True, link), rng=np.random.default_rng(11))
        assert changed.tobytes() != want.tobytes()

"""Loss/gradient oracles: direct summation, finite differences, eigen decompositions."""

import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tthf import losses
from tthf.losses import (
    LINEAR_REGRESSION,
    SQUARED_HINGE_SVM,
    DevicePartition,
    LossModel,
    StrongConvexityError,
)

from conftest import local_grad, local_loss, local_sgd, one_device


def one_point_part(x, y):
    return DevicePartition(device_id=0, X=np.array([x], dtype=float), y=np.array([y], dtype=float))


def random_part(rng, n, m, device_id=0):
    return DevicePartition(
        device_id=device_id, X=rng.standard_normal((n, m)), y=rng.standard_normal(n)
    )


class TestLocalLoss:
    def test_single_point_regression(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=1)
        part = one_point_part([1.0], 0.0)
        assert local_loss(model, np.array([2.0]), part) == pytest.approx(2.0)

    def test_optimum_beats_perturbations(self):
        rng = np.random.default_rng(0)
        model = LossModel(LINEAR_REGRESSION, reg=0.3, dim=3)
        part = random_part(rng, 20, 3)
        w_star = losses.solve_optimum(model, one_device(model, part))
        base = local_loss(model, w_star, part)
        for _ in range(100):
            delta = rng.standard_normal(3) * 0.1
            assert base <= local_loss(model, w_star + delta, part) + 1e-12

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(1)
        model = LossModel(LINEAR_REGRESSION, reg=0.7, dim=4)
        part = random_part(rng, 10, 4)
        w = rng.standard_normal(4)
        direct = sum(0.5 * (y - w @ x) ** 2 for x, y in zip(part.X, part.y)) / 10
        direct += 0.5 * model.reg * w @ w
        assert local_loss(model, w, part) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=3)
        part = one_point_part([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="dimension"):
            one_device(model, part)


class TestClusterGlobalLoss:
    def test_identical_data_symmetry(self):
        rng = np.random.default_rng(2)
        model = LossModel(LINEAR_REGRESSION, reg=0.1, dim=3)
        part = random_part(rng, 8, 3)
        clusters = [[part, part], [part]]
        w = rng.standard_normal(3)
        assert losses.global_loss(model, w, losses.DeviceData(model, clusters)) == pytest.approx(
            local_loss(model, w, part)
        )

    def test_cluster_weights_by_size(self):
        rng = np.random.default_rng(3)
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=2)
        big = [random_part(rng, 5, 2, i) for i in range(3)]
        small = [random_part(rng, 5, 2, 3)]
        w = rng.standard_normal(2)
        expected = 0.75 * np.mean([local_loss(model, w, p) for p in big]) + 0.25 * (
            local_loss(model, w, small[0])
        )
        data = losses.DeviceData(model, [big, small])
        assert losses.global_loss(model, w, data) == pytest.approx(expected, rel=1e-12)

    def test_global_equals_flat_device_mean(self):
        rng = np.random.default_rng(4)
        model = LossModel(LINEAR_REGRESSION, reg=0.2, dim=3)
        clusters = [
            [random_part(rng, 6, 3, i) for i in range(2)],
            [random_part(rng, 6, 3, i + 2) for i in range(2)],
        ]
        w = rng.standard_normal(3)
        flat = [p for c in clusters for p in c]
        mean_loss = np.mean([local_loss(model, w, p) for p in flat])
        data = losses.DeviceData(model, clusters)
        assert losses.global_loss(model, w, data) == pytest.approx(mean_loss, rel=1e-12)

    def test_empty_cluster_raises(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=2)
        with pytest.raises(ValueError, match="empty"):
            losses.DeviceData(model, [[], [one_point_part([1.0, 1.0], 0.0)]])


class TestGradients:
    def test_single_point_gradient(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=1)
        part = one_point_part([1.0], 0.0)
        np.testing.assert_allclose(local_grad(model, np.array([2.0]), part), [2.0])

    @pytest.mark.parametrize("kind", [LINEAR_REGRESSION, SQUARED_HINGE_SVM])
    def test_finite_difference_check(self, kind):
        # 100 instances per loss family, 200 total
        rng = np.random.default_rng(5)
        model = LossModel(kind, reg=0.4, dim=5)
        h = 1e-5
        for _ in range(100):
            part = random_part(rng, 12, 5)
            if kind == SQUARED_HINGE_SVM:
                part.y = np.sign(part.y) + (part.y == 0)
            w = rng.standard_normal(5)
            g = local_grad(model, w, part)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (local_loss(model, w + e, part) - local_loss(model, w - e, part)) / (2 * h)
                assert abs(g[i] - fd) < 1e-6

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(6)
        model = LossModel(LINEAR_REGRESSION, reg=0.5, dim=4)
        part = random_part(rng, 15, 4)
        w_star = losses.solve_optimum(model, one_device(model, part))
        assert np.linalg.norm(local_grad(model, w_star, part)) < 1e-10


class TestSgdGradient:
    def test_full_batch_equals_exact(self):
        rng = np.random.default_rng(7)
        model = LossModel(LINEAR_REGRESSION, reg=0.1, dim=3)
        part = random_part(rng, 9, 3)
        w = rng.standard_normal(3)
        g = local_sgd(model, w, one_device(model, part), batch_size=9, rng=rng)
        np.testing.assert_array_equal(g, local_grad(model, w, part))

    def test_unbiased_over_many_draws(self):
        rng = np.random.default_rng(8)
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=3)
        part = random_part(rng, 12, 3)
        w = rng.standard_normal(3)
        exact = local_grad(model, w, part)
        data = one_device(model, part)
        draws = np.stack([local_sgd(model, w, data, 4, rng) for _ in range(10_000)])
        sem = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - exact) < 3 * sem + 1e-12)

    def test_deterministic_under_seed(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=3)
        part = random_part(np.random.default_rng(9), 10, 3)
        w = np.ones(3)
        data = one_device(model, part)
        a = local_sgd(model, w, data, 3, np.random.default_rng(42))
        b = local_sgd(model, w, data, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_batch_size_out_of_range(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=3)
        part = random_part(np.random.default_rng(10), 5, 3)
        sampler = losses.BatchSampler([5], 3, [np.random.default_rng(0)])
        for bad in (0, 6, -1):
            with pytest.raises(ValueError, match="batch_size"):
                losses.grad_sgd(model, np.zeros((1, 3)), one_device(model, part), bad, sampler)


class TestSmoothnessConstants:
    def test_unit_point(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=1)
        mu, beta = losses.smoothness_constants(model, one_device(model, one_point_part([1.0], 0.0)))
        assert mu == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)

    def test_reg_shifts_both(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.1, dim=1)
        mu, beta = losses.smoothness_constants(model, one_device(model, one_point_part([1.0], 0.0)))
        assert (mu, beta) == (pytest.approx(1.1), pytest.approx(1.1))

    def test_matches_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(11)
        model = LossModel(LINEAR_REGRESSION, reg=0.25, dim=5)
        parts = [random_part(rng, 10, 5, i) for i in range(5)]
        mu, beta = losses.smoothness_constants(model, losses.DeviceData(model, [parts]))
        hessians = [p.X.T @ p.X / p.n_points for p in parts]
        mu_oracle = np.linalg.eigvalsh(sum(hessians) / 5)[0] + 0.25
        beta_oracle = max(np.linalg.eigvalsh(h)[-1] for h in hessians) + 0.25
        assert mu == pytest.approx(mu_oracle, abs=1e-8)
        assert beta == pytest.approx(beta_oracle, abs=1e-8)

    def test_rank_deficient_unregularized_rejected(self):
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=3)
        part = DevicePartition(0, X=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]), y=np.zeros(2))
        with pytest.raises(StrongConvexityError):
            losses.smoothness_constants(model, one_device(model, part))

    def test_svm_requires_reg(self):
        model = LossModel(SQUARED_HINGE_SVM, reg=0.0, dim=2)
        part = DevicePartition(0, X=np.eye(2), y=np.array([1.0, -1.0]))
        with pytest.raises(StrongConvexityError):
            losses.smoothness_constants(model, one_device(model, part))


class TestConvexityInvariants:
    def test_strong_convexity_inequality(self):
        rng = np.random.default_rng(12)
        model = LossModel(LINEAR_REGRESSION, reg=0.3, dim=4)
        clusters = [[random_part(rng, 10, 4, i) for i in range(3)]]
        data = losses.DeviceData(model, clusters)
        mu, _ = losses.smoothness_constants(model, data)
        for _ in range(50):
            w1, w2 = rng.standard_normal(4), rng.standard_normal(4)
            f1 = losses.global_loss(model, w1, data)
            f2 = losses.global_loss(model, w2, data)
            g2 = sum(local_grad(model, w2, p) for p in clusters[0]) / 3
            lower = f2 + g2 @ (w1 - w2) + 0.5 * mu * np.sum((w1 - w2) ** 2)
            assert f1 >= lower - 1e-9

    @pytest.mark.parametrize("kind", [LINEAR_REGRESSION, SQUARED_HINGE_SVM])
    def test_per_device_smoothness(self, kind):
        rng = np.random.default_rng(13)
        model = LossModel(kind, reg=0.3, dim=4)
        parts = [random_part(rng, 10, 4, i) for i in range(3)]
        if kind == SQUARED_HINGE_SVM:
            for p in parts:
                p.y = np.sign(p.y) + (p.y == 0)
        _, beta = losses.smoothness_constants(model, losses.DeviceData(model, [parts]))
        for _ in range(50):
            w1, w2 = rng.standard_normal(4), rng.standard_normal(4)
            for p in parts:
                lhs = np.linalg.norm(
                    local_grad(model, w1, p) - local_grad(model, w2, p)
                )
                assert lhs <= beta * np.linalg.norm(w1 - w2) + 1e-9

    def test_sgd_bounded_empirical_variance(self):
        rng = np.random.default_rng(14)
        model = LossModel(LINEAR_REGRESSION, reg=0.0, dim=3)
        part = random_part(rng, 10, 3)
        w = rng.standard_normal(3)
        exact = local_grad(model, w, part)
        data = one_device(model, part)
        sq_norms = [np.sum((local_sgd(model, w, data, 3, rng) - exact) ** 2) for _ in range(10_000)]
        worst_point = max(
            np.sum((losses.grad_point(model, w, x, y) - exact) ** 2) for x, y in zip(part.X, part.y)
        )
        assert np.mean(sq_norms) <= worst_point + 1e-9


class TestOptimumSolver:
    def test_svm_solver_reaches_stationarity(self):
        rng = np.random.default_rng(15)
        model = LossModel(SQUARED_HINGE_SVM, reg=1.0, dim=3)
        parts = [random_part(rng, 10, 3, i) for i in range(2)]
        for p in parts:
            p.y = np.sign(p.y) + (p.y == 0)
        w_star = losses.solve_optimum(model, losses.DeviceData(model, [parts]))
        g = sum(local_grad(model, w_star, p) for p in parts) / 2
        assert np.linalg.norm(g) < 1e-10


def stacked_devices(kind, counts, dim, seed):
    """Clusters of random partitions (two devices a cluster) with the given point counts."""
    rng = np.random.default_rng(seed)
    parts = [random_part(rng, n, dim, i) for i, n in enumerate(counts)]
    if kind == SQUARED_HINGE_SVM:
        for p in parts:
            p.y = np.sign(p.y) + (p.y == 0)
    clusters = [parts[i : i + 2] for i in range(0, len(parts), 2)]
    return LossModel(kind, reg=0.3, dim=dim), clusters, parts, rng


def seeded_gens(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


KINDS = st.sampled_from([LINEAR_REGRESSION, SQUARED_HINGE_SVM])
COUNTS = st.lists(st.integers(1, 7), min_size=1, max_size=7)


class TestBatchedLayer:
    """The batched calls on stacked data against one call per device."""

    @given(kind=KINDS, counts=COUNTS, dim=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_grad_full_equals_per_device_calls(self, kind, counts, dim, seed):
        model, clusters, parts, rng = stacked_devices(kind, counts, dim, seed)
        W = rng.standard_normal((len(parts), dim))
        batched = losses.grad_full(model, W, losses.DeviceData(model, clusters))
        per_device = np.stack([local_grad(model, w, p) for w, p in zip(W, parts)])
        np.testing.assert_array_equal(batched, per_device)

    @given(kind=KINDS, counts=COUNTS, dim=st.integers(1, 5), seed=st.integers(0, 2**16),
           data=st.data())
    def test_grad_sgd_equals_per_device_calls(self, kind, counts, dim, seed, data):
        model, clusters, parts, rng = stacked_devices(kind, counts, dim, seed)
        # batch_size == min(counts) makes the smallest devices use every point, undrawn
        batch = data.draw(st.integers(1, min(counts)), label="batch_size")
        data_stacked = losses.DeviceData(model, clusters)
        sampler = losses.BatchSampler(data_stacked.n_points, batch, seeded_gens(seed, len(parts)))
        gens_single = seeded_gens(seed, len(parts))
        # two steps: the second reads each device's stream where the first left it
        for _ in range(2):
            W = rng.standard_normal((len(parts), dim))
            batched = losses.grad_sgd(model, W, data_stacked, batch, sampler)
            per_device = np.stack([
                local_sgd(model, w, one_device(model, p), batch, g)
                for w, p, g in zip(W, parts, gens_single)
            ])
            np.testing.assert_array_equal(batched, per_device)

    def test_grad_sgd_rejects_a_sampler_for_another_batch_size(self):
        model, clusters, parts, _ = stacked_devices(LINEAR_REGRESSION, [5, 6, 7], 2, 0)
        sampler = losses.BatchSampler([5, 6, 7], 2, seeded_gens(0, 3))
        with pytest.raises(ValueError, match="another batch size"):
            losses.grad_sgd(model, np.zeros((3, 2)), losses.DeviceData(model, clusters), 3, sampler)

    @given(kind=KINDS, counts=COUNTS, dim=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_stats_and_beta_equal_per_device_formulas(self, kind, counts, dim, seed):
        model, clusters, parts, _ = stacked_devices(kind, counts, dim, seed)
        data = losses.DeviceData(model, clusters)
        H, b, c = losses.quadratic_stats(data.blocks, data.n_devices)
        np.testing.assert_array_equal(H, np.stack([p.X.T @ p.X / p.n_points for p in parts]))
        np.testing.assert_array_equal(b, np.stack([p.X.T @ p.y / p.n_points for p in parts]))
        np.testing.assert_array_equal(c, [0.5 * np.mean(p.y**2) for p in parts])
        np.testing.assert_array_equal(data.H, H)
        mu, beta = losses.smoothness_constants(model, data)
        per_device = max(float(np.linalg.eigvalsh(h)[-1]) for h in H) + model.reg
        assert beta == max(per_device, mu)

    @pytest.mark.parametrize("kind", [LINEAR_REGRESSION, SQUARED_HINGE_SVM])
    @given(counts=COUNTS, dim=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_global_loss_is_mean_device_loss(self, kind, counts, dim, seed):
        model, clusters, parts, rng = stacked_devices(kind, counts, dim, seed)
        w = rng.standard_normal(dim)
        mean_loss = np.mean([local_loss(model, w, p) for p in parts])
        data = losses.DeviceData(model, clusters)
        assert losses.global_loss(model, w, data) == pytest.approx(mean_loss, rel=1e-12, abs=1e-12)
        assert losses.device_mean_loss(model, w, data) == pytest.approx(mean_loss, rel=1e-12, abs=1e-12)


def choice_reference(words, n, b):
    """Generator.choice(n, b, replace=False) in Floyd's regime, on an iterator over a
    PCG64's 32-bit words: Floyd's algorithm, then a Fisher-Yates shuffle of the picks,
    every draw a Lemire bounded integer. Returns the picks and the rejections seen."""
    rejections = 0

    def bounded(bound):
        nonlocal rejections
        while True:
            m = next(words) * bound
            if m % 2**32 >= (2**32 - bound) % bound:
                return m // 2**32
            rejections += 1

    picks = []
    for j in range(n - b, n):
        v = bounded(j + 1)
        picks.append(j if v in picks else v)
    for i in range(b - 1, 0, -1):
        k = bounded(i + 1)
        picks[i], picks[k] = picks[k], picks[i]
    return picks, rejections


def words_of(outputs):
    """The 32-bit words of 64-bit PCG64 outputs, as next_uint32 returns them: low half first."""
    for out in outputs:
        yield int(out) % 2**32
        yield int(out) // 2**32


class ScriptedPCG64(np.random.PCG64):
    """A PCG64 whose random_raw returns the given 64-bit outputs in turn."""

    def __init__(self, outputs):
        super().__init__(0)
        self.outputs = list(outputs)

    def random_raw(self, size=None, output=True):
        out, self.outputs = self.outputs[:size], self.outputs[size:]
        assert len(out) == size, "script ran out of outputs"
        return np.array(out, dtype=np.uint64)


class TestBatchSampler:
    """The array sampler against one Generator.choice call per device, bit for bit."""

    @staticmethod
    def choice_picks(n_points, b, gens):
        return np.array([
            np.arange(n) if n == b else g.choice(n, size=b, replace=False)
            for n, g in zip(n_points, gens)
        ])

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(1, 30), min_size=1, max_size=9), seed=st.integers(0, 2**16),
           outside=st.booleans(), data=st.data())
    def test_equals_choice_over_many_steps(self, counts, seed, outside, data):
        if outside:
            # choice leaves Floyd's algorithm for n > 10000 and b > n // 50, which needs b > 200
            b = data.draw(st.integers(201, 210), label="batch_size")
            counts = [b + c - 1 for c in counts] + [data.draw(st.integers(10001, 50 * b - 1)), 20000]
            steps = data.draw(st.integers(1, 3), label="steps")
        else:
            b = data.draw(st.integers(1, min(counts)), label="batch_size")
            # up to 150 steps, enough to refill even a one-word-a-step buffer twice
            steps = data.draw(st.integers(1, 150), label="steps")
        sampler = losses.BatchSampler(counts, b, seeded_gens(seed, len(counts)))
        gens = seeded_gens(seed, len(counts))
        assert (len(sampler.chosen) == 1) is outside
        for _ in range(steps):
            np.testing.assert_array_equal(sampler.draw(), self.choice_picks(counts, b, gens))

    def test_generators_it_cannot_replay_call_choice(self):
        # an MT19937 has another word stream; a PCG64 holding the high half of
        # an output would hand it out before the next random_raw output
        counts, b = [9, 12, 15], 3
        pending = np.random.default_rng(4)
        pending.integers(0, 2**32, dtype=np.uint32)
        gens = [np.random.Generator(np.random.MT19937(1)), pending, np.random.default_rng(5)]
        twins = [
            np.random.Generator(np.random.MT19937(1)), np.random.default_rng(4), np.random.default_rng(5)
        ]
        twins[1].integers(0, 2**32, dtype=np.uint32)
        sampler = losses.BatchSampler(counts, b, gens)
        assert sampler.chosen.tolist() == [0, 1]
        for _ in range(30):
            np.testing.assert_array_equal(sampler.draw(), self.choice_picks(counts, b, twins))

    def test_reference_equals_choice(self):
        for seed in range(50):
            n, b = 20 + seed, 1 + seed % 9
            raw = np.random.default_rng(seed).bit_generator.random_raw(64)
            picks, _ = choice_reference(words_of(raw), n, b)
            assert picks == np.random.default_rng(seed).choice(n, size=b, replace=False).tolist()

    def test_rejected_draws_follow_the_reference(self):
        n_points, b, steps = [20, 20, 9, 13], 4, 40
        rng = np.random.default_rng(5)
        scripts = []
        for d, n in enumerate(n_points):
            words = rng.integers(1, 2**32, size=1200, dtype=np.uint64)
            # a zero word is rejected wherever the draw's bound is not a power of two
            words[rng.choice(np.arange(d, 250), size=12, replace=False)] = 0
            if d == 0:
                # a run of rejections longer than the sampler's prefetch
                words[100:400] = 0
            scripts.append((words[0::2] | (words[1::2] << np.uint64(32))).tolist())
        sampler = losses.BatchSampler(
            n_points, b, [np.random.Generator(ScriptedPCG64(out)) for out in scripts]
        )
        streams = [words_of(out) for out in scripts]
        rejections = 0
        for _ in range(steps):
            expected = []
            for n, words in zip(n_points, streams):
                picks, rejected = choice_reference(words, n, b)
                expected.append(picks)
                rejections += rejected
            np.testing.assert_array_equal(sampler.draw(), expected)
        assert rejections >= 300


class TestPredictLabels:
    def test_annotations_resolve(self):
        hints = typing.get_type_hints(losses.predict_labels)
        assert hints["class_scores"] == typing.Optional[np.ndarray]

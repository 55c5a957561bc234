"""The one-pass seeding of a run's generators against NumPy's own SeedSequence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tthf import losses, seeding, trainer
from tthf.seeding import BATCH_MIN, generators

# 32-bit words, the extremes drawn often
WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
# batch sizes: empty, one row, either side of the row-by-row cutoff, and a device count
SIZES = st.one_of(st.sampled_from([0, 1, BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1]), st.integers(0, 40))


@st.composite
def batches(draw, words=WORD, max_words=4):
    n = draw(SIZES)
    return draw(st.lists(st.lists(words, min_size=1, max_size=max_words), min_size=n, max_size=n))


def assert_numpy_generators(rows):
    gens = generators(rows)
    assert len(gens) == len(rows)
    for row, gen in zip(rows, gens):
        want = np.random.default_rng(np.random.SeedSequence(row))
        assert gen.bit_generator.state == want.bit_generator.state
        assert gen.bit_generator.random_raw(8).tolist() == want.bit_generator.random_raw(8).tolist()


@pytest.mark.oracle
class TestSeedingOracle:
    """seeding.generators against NumPy's own SeedSequence of each row (state and first
    words), over batches of 0 and 1 rows, either side of its row-by-row cutoff, rows
    of 1 to 6 words with 0 and 2**32-1, and values of 2**32 or more."""

    @given(rows=batches())
    def test_equals_numpy_seed_sequences(self, rows):
        assert_numpy_generators(rows)

    @given(rows=batches(words=st.one_of(WORD, st.integers(2**32, 2**80))))
    def test_values_of_several_words_equal_numpy_seed_sequences(self, rows):
        # SeedSequence splits a value of 2**32 or more into several words
        assert_numpy_generators(rows)

    @given(rows=batches(max_words=6))
    def test_rows_longer_than_the_pool_equal_numpy_seed_sequences(self, rows):
        assert_numpy_generators(rows)

    @given(rows=st.lists(st.lists(WORD, min_size=4, max_size=4), min_size=1, max_size=20))
    def test_the_array_hash_equals_generate_state(self, rows):
        want = [np.random.SeedSequence(row).generate_state(4, np.uint64).tolist() for row in rows]
        assert seeding._pcg64_words(np.array(rows, dtype=np.uint32)).tolist() == want

    def test_a_batch_takes_the_array_hash(self, monkeypatch):
        hashed = []
        words = seeding._pcg64_words
        monkeypatch.setattr(seeding, "_pcg64_words", lambda rows: hashed.append(len(rows)) or words(rows))
        rows = [(7, 0x5D00, d) for d in range(BATCH_MIN)]
        generators(rows[:-1])
        assert_numpy_generators(rows)
        assert hashed == [BATCH_MIN]

    @pytest.mark.parametrize("row", [[5], [5, 9], [5, 9, 2**32 - 1], [0]], ids=["1", "2", "3", "zero"])
    def test_rows_of_up_to_4_words_hash_as_padded_with_zeros(self, row):
        # the fact that lets one set of hash constants serve every such row; a 5th word does not pad
        state = np.random.default_rng(np.random.SeedSequence(row)).bit_generator.state
        padded = row + [0] * (4 - len(row))
        assert np.random.default_rng(np.random.SeedSequence(padded)).bit_generator.state == state
        assert np.random.default_rng(np.random.SeedSequence(padded + [0])).bit_generator.state != state

    @pytest.mark.parametrize("n", [1, BATCH_MIN])
    @pytest.mark.parametrize(
        "value, error, message", [(-1, ValueError, "non-negative"), (1.0, TypeError, "integer")],
        ids=["negative", "float"],
    )
    def test_a_value_numpy_refuses_is_refused(self, n, value, error, message):
        with pytest.raises(error, match=message):
            generators([(3, 1)] * (n - 1) + [(3, value)])

    def test_a_batch_generators_seed_sequence_holds_only_the_pcg64_words(self):
        rows = [(7, 0x5D00, d) for d in range(BATCH_MIN)]
        sequence = generators(rows)[2].bit_generator.seed_seq
        want = np.random.SeedSequence(rows[2]).generate_state(4, np.uint64)
        assert sequence.generate_state(4, np.dtype(np.uint64)).tolist() == want.tolist()
        for n_words, dtype in ((8, np.uint64), (4, np.uint32)):
            with pytest.raises(ValueError, match="4 uint64 words"):
                sequence.generate_state(n_words, dtype)

    def test_device_streams_take_the_samplers_replay_path(self):
        # every device with more points than the batch replays Floyd's algorithm on its
        # PCG64's words, each step equal to one choice call on NumPy's own generator
        n_points, b = [12, 7, 30, 4, 9, 4, 16, 11, 8, 20], 4
        assert len(n_points) >= BATCH_MIN
        sampler = losses.BatchSampler(n_points, b, generators(trainer._device_rows(9, len(n_points))))
        drawn = [d for d, n in enumerate(n_points) if n > b]
        assert sampler.replayed.tolist() == drawn and sampler.chosen.tolist() == []
        oracle = [np.random.default_rng(np.random.SeedSequence([9, trainer._STREAM_SGD, d])) for d in drawn]
        for _ in range(40):
            step = sampler.draw()
            assert [step[d].tolist() for d in drawn] == [
                gen.choice(n_points[d], size=b, replace=False).tolist() for d, gen in zip(drawn, oracle)
            ]

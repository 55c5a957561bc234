"""The run's random generators, seeded in one array pass.

Every generator of a run is `np.random.default_rng(np.random.SeedSequence(row))`
for a short row of ints: a run seed or data seed and a stream tag, then the
device, cluster or placement attempt it belongs to. `generators` returns those
generators bit for bit, and a batch of rows takes NumPy's SeedSequence hash as
uint32 array arithmetic over the whole batch, which wraps silently as the
hash does. Each PCG64 then takes its precomputed words through NumPy's
`ISeedSequence` interface instead of hashing them again in Python.

The hash follows numpy/random/bit_generator.pyx (`mix_entropy` over a pool of
4 words, then `generate_state(4, np.uint64)`). Its constants depend only on
the entropy's word count, and a row of up to 4 words hashes as the row padded
with zeros to 4, so one set of constants serves every such row. A batch with a
row of 5 words or more, or with a value that is not one uint32 word (SeedSequence
splits 2**32 or more into several words and refuses negative and float values),
is seeded a row at a time by NumPy's own SeedSequence.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_POOL = 4  # SeedSequence's pool size in uint32 words
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# a batch of fewer rows than this costs less seeded a row at a time
BATCH_MIN = 8


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiplier) pairs of n successive hashmix calls, as (2, n) uint32."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult % 2**32)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


# mix_entropy's 4 + 12 hashmix calls, and generate_state's 8 words of 4 uint64
_ENTROPY = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_STATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
# for each source word, the other words it mixes into, in order
_OTHERS = [[dst for dst in range(_POOL) if dst != src] for src in range(_POOL)]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_words(rows: np.ndarray) -> np.ndarray:
    """The (n, 4) uint64 words SeedSequence(row).generate_state(4, np.uint64) gives
    for each row of an (n, 4) uint32 array."""
    pool = _hashmix(rows, _ENTROPY[:, :_POOL])
    for src, others in enumerate(_OTHERS):
        start = _POOL + 3 * src
        hashed = _hashmix(pool[:, src, None], _ENTROPY[:, start : start + 3])
        pool[:, others] = _mix(pool[:, others], hashed)
    state = _hashmix(np.tile(pool, 2), _STATE)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence whose state is already generated: the 4 uint64 words PCG64 reads."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (_POOL, np.uint64):
            raise ValueError("holds the 4 uint64 words of a PCG64 seed only")
        return self.words


def _generator(row) -> np.random.Generator:
    row = list(row)
    if all(isinstance(v, (int, np.integer)) and 0 <= v < 2**32 for v in row):
        # a uint32 array skips SeedSequence's word-by-word coercion of a list
        row = np.array(row, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(row)))


def generators(rows) -> list[np.random.Generator]:
    """For each row of non-negative ints, the generator that
    `np.random.default_rng(np.random.SeedSequence(row))` returns, bit for bit.

    A batch of at least BATCH_MIN rows of at most 4 words, each in [0, 2**32),
    is hashed in one array pass; any other batch is seeded row by row.
    """
    rows = list(rows)
    table = None
    if len(rows) >= BATCH_MIN and max(map(len, rows)) <= _POOL:
        table = np.array(list(zip_longest(*rows, fillvalue=0)))
    if table is None or table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= 2**32:
        return [_generator(row) for row in rows]
    padded = np.zeros((len(rows), _POOL), dtype=np.uint32)
    padded[:, : len(table)] = table.T
    return [np.random.Generator(np.random.PCG64(_Words(words))) for words in _pcg64_words(padded)]

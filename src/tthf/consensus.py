"""D2D consensus rounds, consensus-error measurement, and the contraction certificate."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np


@dataclass
class OutagePolicy:
    """Per-round Rayleigh packet loss on each undirected link.

    link_outage[i, j] is the Bernoulli loss probability of edge (i, j); losses are
    symmetric per round (channel reciprocity). An enabled policy needs a square
    link_outage of probabilities in [0, 1].
    """

    enabled: bool
    link_outage: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.enabled:
            return
        if self.link_outage is None:
            raise ValueError("an enabled outage policy needs a link_outage matrix")
        link = np.asarray(self.link_outage, dtype=float)
        if link.ndim != 2 or link.shape[0] != link.shape[1]:
            raise ValueError(f"link_outage must be a square matrix, not of shape {link.shape}")
        _check_probabilities(link)


def _check_probabilities(link: np.ndarray):
    if not ((link >= 0.0) & (link <= 1.0)).all():
        raise ValueError("link_outage must hold probabilities in [0, 1] (NaN is not one)")


# uniforms an OutageStream fetches per block, in whole rounds of its link count;
# on the 25x5 benchmark network a lossy seed builds each cluster's blocks about
# three times, and the 25 streams hold about 420 kB at the end of a seed
# (tracemalloc): 200 kB of kept uniforms, the rest their round lists and the
# folded matrices in them
OUTAGE_BLOCK = 1024


@functools.lru_cache(maxsize=None)
def _pair_differences(s: int) -> np.ndarray:
    """The (s(s-1)/2, s) matrix whose row for the pair i < j (row-major) holds +1
    at i and -1 at j; read-only, as callers share it."""
    i, j = np.triu_indices(s, k=1)
    rows = np.arange(len(i))
    matrix = np.zeros((len(i), s))
    matrix[rows, i], matrix[rows, j] = 1.0, -1.0
    matrix.flags.writeable = False
    return matrix


def _power(V: np.ndarray, gamma: int) -> np.ndarray:
    """V^gamma, read-only, as callers share it."""
    power = np.linalg.matrix_power(V, gamma)
    power.flags.writeable = False
    return power


class _EdgeTable(NamedTuple):
    """A cluster's m links: the nonzero (i < j) entries of V, in row-major order."""

    V: np.ndarray  # (n, n)
    rows: np.ndarray  # (m,) each link's i
    cols: np.ndarray  # (m,) each link's j
    probs: np.ndarray  # (m,) each link's loss probability


def _edges(V: np.ndarray, link: np.ndarray) -> _EdgeTable:
    """Edge table of V and its outage matrix, read-only copies that no caller changes.

    The outage matrix is checked here, not only when its policy is built: a
    matrix changed in place after that is checked when a table is next built from it.
    """
    _check_probabilities(link)
    rows, cols = np.nonzero(np.triu(V, 1))
    return _EdgeTable(V, rows, cols, link[rows, cols])


class _Powers(dict):
    """V's powers by round count, each made the first time it is looked up."""

    def __init__(self, V: np.ndarray):
        super().__init__()
        self.V = V

    def __missing__(self, gamma: int) -> np.ndarray:
        power = self[gamma] = _power(self.V, gamma)
        return power


class ClusterGossip:
    """One cluster's gossip on one topology, passed to run_consensus in V's place.

    It holds a read-only copy of V (`V`). Lossless gossip holds `powers`:
    `powers[gamma]` is V^gamma, made by matrix_power the first time it is
    looked up. Lossy gossip holds the edge table (`table`), built and checked
    once, which an OutageStream binds to by identity, and a read-only copy of
    the outage matrix (`link`), kept for inspection only: the losses read the
    table's probabilities. run_consensus makes a new one for each call on a bare
    matrix, so a matrix changed in place is never read stale.
    """

    def __init__(self, V: np.ndarray, link_outage: Optional[np.ndarray] = None):
        self.V = np.array(V, dtype=float, order="C")
        self.V.flags.writeable = False
        self.link = self.table = self.powers = None
        if link_outage is None:
            self.powers = _Powers(self.V)
        else:
            self.link = np.array(link_outage, dtype=float, order="C")
            self.link.flags.writeable = False
            if self.link.shape != self.V.shape:
                raise ValueError(f"link_outage of shape {self.link.shape} does not match V's {self.V.shape}")
            self.table = _edges(self.V, self.link)


def _folded(table: _EdgeTable, lost: np.ndarray) -> np.ndarray:
    """The (k, n, n) round matrices of k rounds, each row of lost (k, m) one round.

    A lost link's entries go to zero and its weight V[i, j] folds onto both
    endpoint diagonals. Each node adds its column of weights left to right,
    -0.0 where no link was lost (x + -0.0 is x for every x): its links in
    ascending neighbour order, which is their edge order, so the matrices
    have the bits of one loop over the edges and stay symmetric and doubly
    stochastic.
    """
    V = table.V
    n = len(V)
    mask = np.zeros((len(lost), n, n), dtype=bool)
    mask[:, table.rows, table.cols] = mask[:, table.cols, table.rows] = lost
    folds = np.where(mask, V, -0.0)
    diag = V.diagonal() + folds[:, :, 0]
    for r in range(1, n):
        diag += folds[:, :, r]
    flat = np.where(mask, 0.0, V).reshape(-1, n * n)
    flat[:, :: n + 1] = diag
    return flat.reshape(-1, n, n)


class OutageStream:
    """One cluster's link losses, drawn from its generator a block at a time.

    The losses of every round are one uniform per link, in edge order, round
    after round, from one flat sequence: `rng.random(a)` then `rng.random(b)`
    hand out the doubles of `rng.random(a + b)`, so how the stream cuts the
    sequence into blocks changes no loss. A block fetches about `block`
    uniforms (0: just the rounds asked for) and reads them as rows of the
    current link count; one comparison gives every row's lost links, one
    `_folded` pass the matrix of every row that lost one, and the stream hands
    out the block's rounds from a list (V where no link was lost) at a pointer.
    A refill reads only fresh uniforms and the part of a row a refresh left
    over, so each uniform is compared once per binding, whatever the round
    counts. It binds to its ClusterGossip by identity: a new one (a
    refresh, or each call on bare matrices, of any size) re-reads the uniforms
    not yet used at its link count, and leaves the generator alone.

    The stream runs ahead of the rounds it hands out, so it must be its
    generator's only user.
    """

    def __init__(self, rng: np.random.Generator, block: int = OUTAGE_BLOCK):
        self.rng = rng
        self.block = block
        self._gossip = None  # the bound ClusterGossip
        self._m = 0  # links of its table
        self._u = np.empty(0)  # the block's uniforms, read as rows of m
        self._rounds: list = []  # the round matrix of each whole row
        self._used = 0  # rows handed out

    def rounds(self, gossip: ClusterGossip, gamma: int) -> list:
        """The next gamma round matrices of this lossy gossip."""
        if gossip is not self._gossip:
            u = self._unread()
            self._gossip, self._m = gossip, len(gossip.table.probs)
            self._read(u)
        used, rows, m = self._used, len(self._rounds), self._m
        if used + gamma <= rows:
            self._used = used + gamma
            return self._rounds[used : used + gamma]
        if not m:  # a table without links draws nothing, as every round is V
            return [gossip.V] * gamma
        out = self._rounds[used:]
        tail = self._u[rows * m:]
        fresh = self.rng.random(max(gamma - len(out), self.block // m) * m - len(tail))
        self._read(np.concatenate((tail, fresh)))
        self._used = gamma - len(out)
        return out + self._rounds[: self._used]

    def _unread(self) -> np.ndarray:
        """The block's uniforms not yet handed out."""
        return self._u[self._used * self._m:]

    def _read(self, u: np.ndarray):
        table, m = self._gossip.table, self._m
        rows = len(u) // m if m else 0
        lost = u[: rows * m].reshape(rows, m) < table.probs
        hit = np.flatnonzero(lost.any(axis=1))
        self._u, self._used, self._rounds = u, 0, [table.V] * rows
        for r, matrix in zip(hit.tolist(), _folded(table, lost[hit])):
            self._rounds[r] = matrix


def run_consensus(
    w_tilde: np.ndarray,
    V: Union[np.ndarray, ClusterGossip],
    gamma: int,
    outage: Optional[OutagePolicy] = None,
    rng: Union[np.random.Generator, OutageStream, None] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply `gamma` rounds of gossip mixing to the rows of w_tilde.

    gamma is an int or a NumPy integer >= 0; any other value (a float, a bool)
    is a ValueError, raised before a generator or stream moves. out, when
    given, is a C-contiguous float array of w_tilde's shape that shares no
    memory with it; the call writes its result there and returns it, with the
    bits it would return without out. The last product writes into out, and 0
    rounds copy w_tilde into it. The engine passes each cluster's rows of its
    step buffer, so a call allocates no result.

    V is a matrix, or the ClusterGossip the engine passes in its place (one per
    cluster and topology, from run_protocol's D2D epoch), which fixes the link
    losses itself, so outage must then be None. A bare matrix becomes a new
    ClusterGossip on each call, lossless or lossy, so one changed in place is
    never read stale.

    Lossless rounds are one multiply by V^gamma. Lossy rounds take
    their link losses from rng: one uniform per edge in (i < j) row-major order,
    round after round. A round that lost no link multiplies by V; otherwise each
    lost link's weight folds back onto both endpoint diagonals, in edge order,
    which keeps the round's matrix symmetric and doubly stochastic.

    rng is the cluster's OutageStream when the engine calls: run_protocol owns
    one per cluster of a lossy run, and it prefetches uniforms and builds the
    round matrices a block at a time. The uniforms form one flat sequence, so
    the blocks change no loss, and at a topology refresh (a new ClusterGossip)
    the stream re-reads the uniforms not yet used at the new edge count. A
    bare Generator is read through a stream that fetches exactly this
    call's gamma * n_edges uniforms, so it ends where one
    `rng.random((gamma, n_edges))` would leave it.

    Every product is the matrix's `ndarray.dot`, np.dot's BLAS call without
    its `__array_function__` dispatch, with the bits of `@`
    (TestGossipProductOracle in tests/test_consensus.py holds this, with and
    without out). The call stays one per cluster: acceptance criteria 1-3
    call it on one cluster, and perfbench counts one call per cluster and
    step. Stacking the clusters' gossip, and their streams, waits on that
    count (ROADMAP item 2).
    """
    # a plain int, the engine's count, passes on one type test
    if type(gamma) is not int and (isinstance(gamma, bool) or not isinstance(gamma, np.integer)) or gamma < 0:
        raise ValueError(f"gamma must be an integer >= 0, not {gamma!r}")
    if gamma == 0:
        if out is None:
            return w_tilde.copy()
        out[...] = w_tilde
        return out
    if isinstance(V, ClusterGossip):
        if outage is not None:
            raise ValueError("a ClusterGossip fixes its own link losses: pass outage=None")
        gossip = V
    else:
        gossip = ClusterGossip(V, outage.link_outage if outage is not None and outage.enabled else None)
    if gossip.table is None:
        return gossip.powers[gamma].dot(w_tilde, out=out)
    if rng is None:
        raise ValueError("outage-enabled consensus needs an rng")
    stream = rng if isinstance(rng, OutageStream) else OutageStream(rng, block=0)
    rounds = stream.rounds(gossip, gamma)
    z = w_tilde
    for matrix in rounds[:-1]:
        z = matrix.dot(z)
    return rounds[-1].dot(z, out=out)


def consensus_error(w: np.ndarray, w_tilde: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-device error norms against the intermediate-model average, and the cluster RMS.

    Axes before the last two are batch axes: (..., s, d) inputs give (..., s)
    norms and one RMS per batch entry (a float for 2-D inputs). The norms are
    `np.linalg.norm`'s, bit for bit: the root of each row's sum of squares.
    The center of one row is that row, bit for bit, so a caller that holds the
    cluster means already passes them as (..., 1, d) w_tilde.
    """
    diff = w - w_tilde.mean(axis=-2, keepdims=True)
    errs = np.sqrt(np.square(diff, out=diff).sum(axis=-1))
    rms = np.sqrt(np.mean(errs**2, axis=-1))
    return errs, float(rms) if rms.ndim == 0 else rms


def divergence_exact(w_tilde: np.ndarray):
    """Max pairwise distance between intermediate device models.

    Axes before the last two are batch axes: (..., s, d) input gives one
    distance per batch entry (a float for 2-D input). The i < j pairs and one root
    after the max give the all-pairs value: (a-b)**2 == (b-a)**2, sqrt is monotone.
    The differences are one matmul by the cached +-1 pair-difference matrix,
    and exact: each entry is a single a - b rounding, as every other product
    is +-0. A non-finite entry gives NaN (0 * inf is NaN), where the subtraction
    gave inf; the round rule rejects both, as not a finite divergence.
    """
    if w_tilde.shape[-2] < 2:
        out = np.zeros(w_tilde.shape[:-2])
    else:
        diff = np.matmul(_pair_differences(w_tilde.shape[-2]), w_tilde)
        out = np.sqrt(np.square(diff, out=diff).sum(axis=-1).max(axis=-1))
    return float(out) if out.ndim == 0 else out


def divergence_estimate(w_tilde: np.ndarray):
    """Norm-gap divergence estimate: the largest minus the smallest device model norm.

    Each device floods |w_tilde_i| to its neighbours, and flooding only copies
    the extremes it has seen, so after s-1 rounds on a connected cluster of s
    devices every device holds the exact max and min; the estimate is their
    difference. Always a lower bound on the exact divergence. Axes before the
    last two are batch axes, as in `divergence_exact`.
    """
    norms = np.linalg.norm(w_tilde, axis=-1)
    out = norms.max(axis=-1) - norms.min(axis=-1)
    return float(out) if out.ndim == 0 else out


def lemma1_bound(lambda_c: float, gamma: int, s_c: int, upsilon: float) -> float:
    """Certified cap on any device's consensus error: lambda^Gamma * sqrt(s) * Upsilon."""
    if lambda_c < 0 or not lambda_c < 1:
        raise ValueError("lambda_c must lie in [0, 1)")
    # written as `not x >= bound`, so NaN fails
    if not (gamma >= 0 and s_c >= 1 and upsilon >= 0):
        raise ValueError("gamma, s_c, upsilon must be non-negative (s_c >= 1)")
    return float(lambda_c**gamma * np.sqrt(s_c) * upsilon)

"""Learning tasks: device and global losses, gradients, curvature constants.

Two strongly convex model families are supported:

* regularized linear regression, per-point loss 0.5*(y - w.x)^2 + 0.5*reg*|w|^2
* regularized squared-hinge SVM, per-point loss 0.5*max(0, 1 - y*w.x)^2 + 0.5*reg*|w|^2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

LINEAR_REGRESSION = "linear_regression"
SQUARED_HINGE_SVM = "squared_hinge_svm"
_KINDS = (LINEAR_REGRESSION, SQUARED_HINGE_SVM)


class StrongConvexityError(ValueError):
    """Raised when strong convexity of the global loss cannot be certified."""


@dataclass(frozen=True)
class LossModel:
    """A strongly convex learning task: loss family, L2 coefficient, model dimension."""

    kind: str
    reg: float
    dim: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {_KINDS}")
        if self.reg < 0:
            raise ValueError("reg must be >= 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass
class DevicePartition:
    """One device's local dataset: feature rows, real targets, raw integer labels."""

    device_id: int
    X: np.ndarray
    y: np.ndarray
    labels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D (points x features)")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")
        if self.X.shape[0] < 1:
            raise ValueError("device partition must hold at least one point")
        if self.labels is None:
            self.labels = np.full(self.X.shape[0], -1, dtype=int)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]


def size_groups(sizes: Sequence[int]) -> list[tuple[list[int], slice | np.ndarray, int]]:
    """Consecutive row ranges of the given sizes, grouped by size: (members, rows, size).

    The group's rows, reshaped to (members, size, ...), hold its members in
    order. They are a slice, so indexing gives a view, when the members are
    consecutive, as they are when all ranges share a size.
    """
    ends = np.cumsum(sizes)
    by_size: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        by_size.setdefault(int(size), []).append(i)
    groups = []
    for size, members in by_size.items():
        if members == list(range(members[0], members[-1] + 1)):
            rows = slice(int(ends[members[0]]) - size, int(ends[members[-1]]))
        else:
            rows = np.concatenate([np.arange(ends[i] - size, ends[i]) for i in members])
        groups.append((members, rows, size))
    return groups


def quadratic_stats(blocks, n_devices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked per-device data Hessians H_i = X_i'X_i/D_i, b_i = X_i'y_i/D_i and c_i = y_i'y_i/(2D_i).

    `blocks` are DeviceData.blocks, (members, X, y) per point count; each
    block takes one batched product per statistic. A regression device loss
    is F_i(w) = 0.5 w'(H_i + reg*I)w - b_i'w + c_i.
    """
    dim = blocks[0][1].shape[-1]
    H, b, c = np.empty((n_devices, dim, dim)), np.empty((n_devices, dim)), np.empty(n_devices)
    for members, X, y in blocks:
        n = X.shape[-2]
        Xt = np.swapaxes(X, -1, -2)
        H[members] = np.matmul(Xt, X) / n
        b[members] = np.matmul(Xt, y[..., None])[..., 0] / n
        c[members] = 0.5 * np.mean(y**2, axis=-1)
    return H, b, c


class DeviceData:
    """Every device's data, stacked once in cluster order for batched losses and gradients.

    Devices with equal point counts share one (devices, points, d) block. It
    holds every device's data Hessian H_i and b_i; for regression also
    A_i = H_i + reg*I and the device means.
    """

    def __init__(self, model: LossModel, clusters: Sequence[Sequence[DevicePartition]]):
        sizes = [len(c) for c in clusters]
        if not sizes or min(sizes) == 0:
            raise ValueError("empty cluster" if sizes else "no devices")
        self.parts = [p for c in clusters for p in c]
        self.n_devices = len(self.parts)
        self.n_points = np.array([p.n_points for p in self.parts])
        self.starts = np.cumsum(self.n_points) - self.n_points
        self.X = np.concatenate([p.X for p in self.parts])
        self.y = np.concatenate([p.y for p in self.parts])
        if self.X.shape[1] != model.dim:
            raise ValueError(f"feature dimension {self.X.shape[1]} does not match model dim {model.dim}")
        self.blocks = [
            (members, self.X[rows].reshape(len(members), n, model.dim), self.y[rows].reshape(len(members), n))
            for members, rows, n in size_groups(self.n_points)
        ]
        self.cluster_groups = size_groups(sizes)
        ends = np.cumsum(sizes)
        self.cluster_slices = [slice(int(end) - size, int(end)) for size, end in zip(sizes, ends)]
        self.varrho = np.array(sizes, dtype=float) / ends[-1]
        self.H, self.b, c = quadratic_stats(self.blocks, self.n_devices)
        if model.kind == LINEAR_REGRESSION:
            self.A = self.H + model.reg * np.eye(model.dim)
            self.mean_quad = (self.A.mean(axis=0), self.b.mean(axis=0), float(c.mean()))


def device_data(model: LossModel, data) -> DeviceData:
    """`data` as a DeviceData: stacked data as is, clusters of partitions stacked."""
    return data if isinstance(data, DeviceData) else DeviceData(model, data)


def _loss_batch(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean per-point loss at w over the rows of X; leading axes of X and y are devices."""
    margins = np.matmul(X, w)
    if model.kind == LINEAR_REGRESSION:
        data_term = 0.5 * np.mean((y - margins) ** 2, axis=-1)
    else:
        slack = np.maximum(0.0, 1.0 - y * margins)
        data_term = 0.5 * np.mean(slack**2, axis=-1)
    return data_term + 0.5 * model.reg * (w @ w)


def global_loss(model: LossModel, w: np.ndarray, data: DeviceData) -> float:
    """F(w) = (1/I) sum_i F_i(w): closed form 0.5 w'Aw - b'w + c for regression, else device_mean_loss."""
    if model.kind == LINEAR_REGRESSION:
        A, b, c = data.mean_quad
        return float(0.5 * w @ (A @ w) - b @ w + c)
    return device_mean_loss(model, w, data)


def device_mean_loss(model: LossModel, w: np.ndarray, data: DeviceData) -> float:
    """sum_c varrho_c F_c(w), F_c the mean device loss of cluster c; equals (1/I) sum_i F_i(w)."""
    losses = np.empty(data.n_devices)
    for members, X, y in data.blocks:
        losses[members] = _loss_batch(model, w, X, y)
    cluster_means = np.empty(len(data.varrho))
    for members, rows, size in data.cluster_groups:
        cluster_means[members] = losses[rows].reshape(len(members), size).mean(axis=1)
    return float(data.varrho @ cluster_means)


def grad_point(model: LossModel, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the per-point loss at w."""
    m = float(x @ w)
    if model.kind == LINEAR_REGRESSION:
        return (m - y) * x + model.reg * w
    slack = max(0.0, 1.0 - y * m)
    return -y * slack * x + model.reg * w


def _grad_batch(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean per-point gradient over the rows of X; leading axes of w, X and y are devices."""
    margins = np.matmul(X, w[..., None])[..., 0]
    if model.kind == LINEAR_REGRESSION:
        residual = margins - y
    else:
        residual = -y * np.maximum(0.0, 1.0 - y * margins)
    g = np.matmul(np.swapaxes(X, -1, -2), residual[..., None])[..., 0] / X.shape[-2]
    return g + model.reg * w


def grad_full(model: LossModel, w: np.ndarray, data: DeviceData) -> np.ndarray:
    """Exact gradient of every device's local loss at its own model, w of shape (n_devices, d)."""
    if model.kind == LINEAR_REGRESSION:
        return _quadratic_grad(data.A, data.b, w)
    g = np.empty((data.n_devices, model.dim))
    for members, X, y in data.blocks:
        g[members] = _grad_batch(model, w[members], X, y)
    return g


def _quadratic_grad(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Closed-form regression gradients A_i w_i - b_i; leading axes are devices."""
    return np.einsum("dij,dj->di", A, w) - b


def grad_sgd(
    model: LossModel, w: np.ndarray, data: DeviceData, batch_size: int, rng: BatchSampler
) -> np.ndarray:
    """Every device's gradient at its own model, w of shape (n_devices, d), over a
    uniform without-replacement mini-batch of exactly batch_size of its points.

    rng is a BatchSampler over the devices' generators, which draws every
    device's batch; all run as one block.
    """
    if not 1 <= batch_size <= data.n_points.min():
        raise ValueError(f"batch_size {batch_size} out of range [1, {data.n_points.min()}]")
    if rng.batch_size != batch_size or not np.array_equal(rng.n_points, data.n_points):
        raise ValueError("the sampler was built for another batch size or other devices")
    return _grad_rows(model, w, data, np.arange(data.n_devices), rng.draw())


def grad_batches(
    model: LossModel, w: np.ndarray, data: DeviceData, devices: np.ndarray, batch_size: int, rngs
) -> np.ndarray:
    """Mini-batch gradients of the listed devices of stacked data, one row per entry.

    Entry j draws batch_size of device devices[j]'s points, uniformly without
    replacement, with rngs[j].choice, in entry order, and takes the gradient at
    w[j]; a device may be listed more than once. A batch of every point is
    drawn without the generator.
    """
    picks = np.array([
        np.arange(n) if n == batch_size else gen.choice(n, size=batch_size, replace=False)
        for n, gen in zip(data.n_points[devices].tolist(), rngs)
    ])
    return _grad_rows(model, w, data, devices, picks)


def _grad_rows(model: LossModel, w: np.ndarray, data: DeviceData, devices: np.ndarray, picks: np.ndarray):
    """Gradient at w[j] over the points picks[j] of device devices[j]; a batch of
    every point takes grad_full's closed form for regression."""
    rows = data.starts[devices][:, None] + picks
    g = _grad_batch(model, w, data.X[rows], data.y[rows])
    full = data.n_points[devices] == picks.shape[1]
    if model.kind == LINEAR_REGRESSION and full.any():
        g[full] = _quadratic_grad(data.A[devices[full]], data.b[devices[full]], w[full])
    return g


# Generator.choice(n, b, replace=False) runs Floyd's algorithm unless n exceeds
# this and b exceeds n // 50, when it shuffles a tail of arange(n) instead
_FLOYD_MAX_N = 10000
# 64-bit generator outputs a BatchSampler fetches per device at a time
_PREFETCH = 32
_WORD = 0xFFFFFFFF


class BatchSampler:
    """Every device's mini-batch of a step in one array pass, equal bit for bit to
    `gens[i].choice(n_points[i], batch_size, replace=False)` for each device i.

    For PCG64 and these sizes `choice` is Floyd's algorithm, then a Fisher-Yates
    shuffle of the picks; every draw is a Lemire bounded integer on the
    generator's 32-bit words, the low then the high half of each 64-bit output.
    The sampler replays both on words it prefetches with `random_raw`, so it
    must be the only user of its generators. A device with batch_size points
    takes them all without a draw; one outside Floyd's regime, or whose
    generator is not a PCG64 with an empty 32-bit buffer, calls `choice`.
    """

    def __init__(self, n_points, batch_size: int, gens):
        self.n_points = np.asarray(n_points)
        self.batch_size = b = batch_size
        self.gens = list(gens)
        if len(self.gens) != len(self.n_points) or not 1 <= b <= self.n_points.min():
            raise ValueError("need one generator per device and 1 <= batch_size <= min(n_points)")
        replay = np.array([
            isinstance(g.bit_generator, np.random.PCG64) and not g.bit_generator.state["has_uint32"]
            for g in self.gens
        ])
        drawn = self.n_points > b
        floyd = (self.n_points <= _FLOYD_MAX_N) | (b <= self.n_points // 50)
        self.replayed = np.flatnonzero(drawn & floyd & replay)
        self.chosen = np.flatnonzero(drawn & ~(floyd & replay))
        # arrays over the replayed devices hold one column per device and one row
        # per draw: Floyd's j = n-b .. n-1 (bound j+1), then the shuffle's i = b-1 .. 1
        n = self.n_points[self.replayed]
        self.tops = n - b + np.arange(b)[:, None]
        shuffle_bounds = np.broadcast_to(np.arange(b, 1, -1)[:, None], (b - 1, len(n)))
        self.bounds = np.concatenate([self.tops + 1, shuffle_bounds]).astype(np.uint64)
        # Lemire rejects a draw whose low product word is below this
        self.threshold = (np.uint64(2**32) - self.bounds) % self.bounds
        self.columns = np.arange(len(n))
        # each device's unread words start at row `cursor` and end before its `end`
        self.words = np.empty((0, len(n)), dtype=np.uint32)
        self.cursor = 0
        self.end = np.zeros(len(n), dtype=np.int64)

    def draw(self) -> np.ndarray:
        """The (devices, batch_size) point indices of the next step, in each device's draw order."""
        picks = np.broadcast_to(np.arange(self.batch_size), (len(self.n_points), self.batch_size)).copy()
        if len(self.replayed):
            picks[self.replayed] = self._replay().T
        for d in self.chosen.tolist():
            picks[d] = self.gens[d].choice(int(self.n_points[d]), size=self.batch_size, replace=False)
        return picks

    def _replay(self) -> np.ndarray:
        b = self.batch_size
        need = 2 * b - 1
        if self.cursor + need > self.end.min():
            self._refill(need)
        step = self.cursor
        self.cursor += need
        m = self.words[step:step + need] * self.bounds
        vals = (m >> 32).astype(np.int64)
        # Floyd: the draw for j stands for j itself when it was picked before
        picks = np.empty((b, len(self.columns)), dtype=np.int64)
        for t in range(b):
            seen = (picks[:t] == vals[t]).any(axis=0)
            picks[t] = np.where(seen, self.tops[t], vals[t])
        flat = picks.reshape(-1)
        for t, i in enumerate(range(b - 1, 0, -1)):
            at = vals[b + t] * len(self.columns) + self.columns
            held = flat[at]
            flat[at] = picks[i]
            picks[i] = held
        # a rejected draw consumes further words: redo those devices one draw at a time
        rejected = np.flatnonzero(((m & _WORD) < self.threshold).any(axis=0))
        if len(rejected):
            self.cursor = step
            for r in rejected.tolist():
                picks[:, r] = self._replay_one(r)
            self.cursor += need
        return picks

    def _replay_one(self, r: int) -> list[int]:
        """Device column r's picks from the step's first word on, one scalar draw at a
        time; its further words are then moved up so that its next step starts with
        every other device's."""
        n, b = int(self.n_points[self.replayed[r]]), self.batch_size
        at = self.cursor

        def bounded(bound: int) -> int:
            nonlocal at
            while True:
                if at == self.end[r]:
                    at -= self.cursor
                    self._refill(1)
                    at += self.cursor
                m = int(self.words[at, r]) * bound
                at += 1
                if m & _WORD >= (2**32 - bound) % bound:
                    return m >> 32

        picks: list[int] = []
        for j in range(n - b, n):
            v = bounded(j + 1)
            picks.append(j if v in picks else v)
        for i in range(b - 1, 0, -1):
            k = bounded(i + 1)
            picks[i], picks[k] = picks[k], picks[i]
        extra = at - (self.cursor + 2 * b - 1)
        self.words[at - extra:self.end[r] - extra, r] = self.words[at:self.end[r], r]
        self.end[r] -= extra
        return picks

    def _refill(self, need: int):
        """Keep every device's unread words and append at least `need` more."""
        left = self.end - self.cursor
        raw = np.stack(
            [self.gens[d].bit_generator.random_raw(max(_PREFETCH, need)) for d in self.replayed], axis=1
        )
        fresh = np.empty((2 * len(raw), raw.shape[1]), dtype=np.uint32)
        fresh[0::2] = raw & _WORD
        fresh[1::2] = raw >> 32
        keep = int(left.max())
        words = np.empty((keep + len(fresh), len(left)), dtype=np.uint32)
        words[:keep] = self.words[self.cursor:self.cursor + keep]
        words[keep:] = fresh
        # a device that had rejected draws has fewer unread words than the others
        for r in np.flatnonzero(left < keep).tolist():
            words[left[r]:left[r] + len(fresh), r] = fresh[:, r]
        self.words, self.cursor, self.end = words, 0, left + len(fresh)


def smoothness_constants(model: LossModel, data: DeviceData) -> tuple[float, float]:
    """(mu, beta): strong convexity of the global loss and the worst per-device smoothness.

    For quadratics mu = lambda_min(global data Hessian) + reg; for the squared hinge
    only the regularizer certifies strong convexity. beta is the max over devices of
    the per-device curvature bound lambda_max(H_i) + reg in both cases.
    """
    beta = float(np.linalg.eigvalsh(data.H)[:, -1].max()) + model.reg
    if model.kind == LINEAR_REGRESSION:
        # rho_i = varrho_c * rho_{i,c} = 1/I for every device
        h_global = (data.H * (1.0 / data.n_devices)).sum(axis=0)
        mu = float(np.linalg.eigvalsh(h_global)[0]) + model.reg
        if mu <= 1e-12:
            raise StrongConvexityError("strong convexity not certified: rank-deficient data and reg=0")
    else:
        mu = model.reg
        if mu <= 0:
            raise StrongConvexityError("strong convexity not certified: squared hinge needs reg > 0")
    return mu, max(beta, mu)


def solve_optimum(
    model: LossModel,
    data: DeviceData,
    tol: float = 1e-10,
    max_iter: int = 2_000_000,
) -> np.ndarray:
    """Global minimizer: normal equations for quadratics, full-batch GD for the SVM."""
    rho = 1.0 / data.n_devices
    if model.kind == LINEAR_REGRESSION:
        return np.linalg.solve((data.A * rho).sum(axis=0), (data.b * rho).sum(axis=0))
    mu, beta = smoothness_constants(model, data)
    w = np.zeros(model.dim)
    eta = 1.0 / beta
    for _ in range(max_iter):
        g = (grad_full(model, np.broadcast_to(w, (data.n_devices, model.dim)), data) * rho).sum(axis=0)
        if float(np.linalg.norm(g)) < tol:
            break
        w = w - eta * g
    else:
        raise RuntimeError(f"SVM optimum solver did not reach |grad| < {tol}")
    return w


def predict_labels(
    model: LossModel, w: np.ndarray, X: np.ndarray, n_labels: int,
    class_scores: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Classify rows of X.

    Regression models assign the class whose mean training score is nearest
    (regularization shrinks scores, so raw label values are not usable cut
    points); the SVM uses the sign rule on its +/-1 coding.
    """
    scores = np.asarray(X, dtype=float) @ w
    if model.kind == SQUARED_HINGE_SVM:
        return (scores >= 0).astype(int)
    if class_scores is None:
        class_scores = np.arange(n_labels, dtype=float)
    return np.argmin(np.abs(scores[:, None] - class_scores[None, :]), axis=1)


def accuracy(model: LossModel, w: np.ndarray, X: np.ndarray, labels: np.ndarray, n_labels: int) -> float:
    """Fraction of points whose predicted label matches the raw integer label."""
    if model.kind == SQUARED_HINGE_SVM:
        class_scores = None
        truth = (labels >= (n_labels + 1) // 2).astype(int)
    else:
        scores = np.asarray(X, dtype=float) @ w
        class_scores = np.array(
            [scores[labels == l].mean() if np.any(labels == l) else np.inf for l in range(n_labels)]
        )
        truth = labels
    return float(np.mean(predict_labels(model, w, X, n_labels, class_scores) == truth))

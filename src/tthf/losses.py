"""Learning tasks: device and global losses, gradients, curvature constants.

Two strongly convex model families are supported:

* regularized linear regression, per-point loss 0.5*(y - w.x)^2 + 0.5*reg*|w|^2
* regularized squared-hinge SVM, per-point loss 0.5*max(0, 1 - y*w.x)^2 + 0.5*reg*|w|^2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
        if not 0 <= self.reg < np.inf:
            raise ValueError("reg must be finite and >= 0")
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


def size_groups(sizes: Sequence[int]) -> list[tuple[np.ndarray, slice | np.ndarray, int]]:
    """Consecutive row ranges of the given sizes, grouped by size: (members, rows, size).

    members is an int array. The group's rows, reshaped to (members, size, ...), hold its
    members in order. They are a slice, so indexing gives a view, when the members are
    consecutive, as they are when all ranges share a size.
    """
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    groups = []
    for size in dict.fromkeys(sizes.tolist()):
        members = np.flatnonzero(sizes == size)
        if members[-1] - members[0] == len(members) - 1:
            rows = slice(int(ends[members[0]]) - size, int(ends[members[-1]]))
        else:
            rows = (ends[members, None] - size + np.arange(size)).ravel()
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

    X, y and the raw integer labels hold every point, device after device;
    n_labels is one more than the largest label. Devices with equal point
    counts share one (devices, points, d) block. It holds every device's data
    Hessian H_i and b_i; for regression also A_i = H_i + reg*I and the device means.
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
        self.labels = np.concatenate([p.labels for p in self.parts])
        self.n_labels = int(self.labels.max()) + 1
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
    """Mean per-point loss over the rows of X; leading axes of X and y are devices.

    w holds one model or stacks models on leading axes: (..., d) models give
    (..., devices) losses. Every product is a broadcast stacked matmul, so each
    model's losses are the bits that model alone gives.
    """
    # the residual or slack overwrites the margins: a stack of models holds one
    # (models, devices, points) array at a time
    err = np.matmul(X, w[..., None, :, None])[..., 0]
    if model.kind == LINEAR_REGRESSION:
        np.subtract(y, err, out=err)
    else:
        np.multiply(y, err, out=err)
        np.subtract(1.0, err, out=err)
        np.maximum(0.0, err, out=err)
    data_term = 0.5 * np.mean(np.square(err, out=err), axis=-1)
    return data_term + 0.5 * model.reg * (w[..., None, :] @ w[..., :, None])[..., 0, :]


def _one_or_stacked(out: np.ndarray):
    """A float for one model, else the array of one value per stacked model."""
    return float(out) if out.ndim == 0 else out


def global_loss(model: LossModel, w: np.ndarray, data: DeviceData):
    """F(w) = (1/I) sum_i F_i(w): closed form 0.5 w'Aw - b'w + c for regression, else device_mean_loss.

    w holds one model (a float result) or stacks models on leading axes (one loss each).
    """
    if model.kind == LINEAR_REGRESSION:
        A, b, c = data.mean_quad
        col = w[..., :, None]
        return _one_or_stacked(((0.5 * w)[..., None, :] @ (A @ col) - b[None, :] @ col)[..., 0, 0] + c)
    return device_mean_loss(model, w, data)


def device_mean_loss(model: LossModel, w: np.ndarray, data: DeviceData):
    """sum_c varrho_c F_c(w), F_c the mean device loss of cluster c; equals (1/I) sum_i F_i(w).

    w holds one model (a float result) or stacks models on leading axes (one value each).
    """
    stack = w.shape[:-1]
    losses = np.empty(stack + (data.n_devices,))
    for members, X, y in data.blocks:
        losses[..., members] = _loss_batch(model, w, X, y)
    cluster_means = np.empty(stack + (len(data.varrho),))
    for members, rows, size in data.cluster_groups:
        cluster_means[..., members] = losses[..., rows].reshape(stack + (len(members), size)).mean(axis=-1)
    return _one_or_stacked((cluster_means[..., None, :] @ data.varrho[:, None])[..., 0, 0])


def grad_point(model: LossModel, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the per-point loss at w."""
    m = float(x @ w)
    if model.kind == LINEAR_REGRESSION:
        return (m - y) * x + model.reg * w
    slack = max(0.0, 1.0 - y * m)
    return -y * slack * x + model.reg * w


def _grad_batch(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean per-point gradient over the rows of X; leading axes of w, X and y are devices.

    The margins' array takes the residual in place, and the product's array the
    1/n scale and the reg*w term: the bits of the out-of-place formulas, with
    two arrays where they made six.
    """
    residual = np.matmul(X, w[..., None])[..., 0]
    if model.kind == LINEAR_REGRESSION:
        np.subtract(residual, y, out=residual)
    else:
        # -y * max(0, 1 - y*m), each operation as the formula orders it
        np.multiply(y, residual, out=residual)
        np.subtract(1.0, residual, out=residual)
        np.maximum(0.0, residual, out=residual)
        np.multiply(-y, residual, out=residual)
    g = np.matmul(np.swapaxes(X, -1, -2), residual[..., None])[..., 0]
    g /= X.shape[-2]
    g += model.reg * w
    return g


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
    device's batch; all run as one block. The batch size and the sampler are
    checked once per (sampler, DeviceData) pair: the sampler keeps the data it
    was last checked against, and a call with other data, or with another
    batch size, is checked again. The devices whose batch is every point are
    the sampler's `whole`, fixed when it was built.
    """
    if rng.data is not data or rng.batch_size != batch_size:
        if not 1 <= batch_size <= data.n_points.min():
            raise ValueError(f"batch_size {batch_size} out of range [1, {data.n_points.min()}]")
        if rng.batch_size != batch_size or not np.array_equal(rng.n_points, data.n_points):
            raise ValueError("the sampler was built for another batch size or other devices")
        rng.data = data
    return _grad_rows(model, w, data, slice(None), rng.draw(), rng.whole)


def grad_batches(
    model: LossModel, w: np.ndarray, data: DeviceData, devices: np.ndarray, batch_size: int, rngs
) -> np.ndarray:
    """Mini-batch gradients of the listed devices of stacked data, one row per entry.

    Entry j draws batch_size of device devices[j]'s points, uniformly without
    replacement, with rngs[j].choice, in entry order, and takes the gradient at
    w[j]; a device may be listed more than once. A batch of every point is
    drawn without the generator.
    """
    n_points = data.n_points[devices]
    picks = np.array([
        np.arange(n) if n == batch_size else gen.choice(n, size=batch_size, replace=False)
        for n, gen in zip(n_points.tolist(), rngs)
    ])
    return _grad_rows(model, w, data, devices, picks, np.flatnonzero(n_points == batch_size))


def _grad_rows(
    model: LossModel, w: np.ndarray, data: DeviceData, devices, picks: np.ndarray, full: np.ndarray
) -> np.ndarray:
    """Gradient at w[j] over the points picks[j] of device devices[j], devices an
    index array or slice(None) for every device in order; the entries `full`,
    whose batches hold every point of their device, take grad_full's closed form
    for regression. The batch is gathered with `take`."""
    rows = data.starts[devices, None] + picks
    g = _grad_batch(model, w, data.X.take(rows, axis=0), data.y.take(rows))
    if model.kind == LINEAR_REGRESSION and len(full):
        g[full] = _quadratic_grad(data.A[devices][full], data.b[devices][full], w[full])
    return g


# Generator.choice(n, b, replace=False) runs Floyd's algorithm unless n exceeds
# this and b exceeds n // 50, when it shuffles a tail of arange(n) instead
_FLOYD_MAX_N = 10000
# steps of every device's batch a BatchSampler replays in one array pass; a
# refill fetches two blocks of words
_BLOCK = 16


class BatchSampler:
    """Every device's mini-batch of a step, equal bit for bit to
    `gens[i].choice(n_points[i], batch_size, replace=False)` for each device i.

    For PCG64 and these sizes `choice` is Floyd's algorithm, then a Fisher-Yates
    shuffle of the picks; every draw is a Lemire bounded integer on the
    generator's 32-bit words, the low then the high half of each 64-bit output.
    The sampler replays both, _BLOCK steps of every device in one array pass, on
    words it prefetches with `random_raw`, and hands out one step per `draw`. Its
    generators run up to two blocks ahead of the steps drawn, so it must be their
    only user. A device with batch_size points takes them all without a draw
    (`whole`, built once); one outside Floyd's regime, or whose generator is not
    a PCG64 with an empty 32-bit buffer, calls `choice` once per step of a block.
    `draw` hands out each step's picks relative to its device's first point.
    `data` is the DeviceData that grad_sgd last checked the sampler against.
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
        self.whole = np.flatnonzero(~drawn)
        self.data = None
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
        # the replayed steps not yet handed out start at block[next]
        self.block = np.empty((0, len(self.n_points), b), dtype=np.int64)
        self.next = 0

    def draw(self) -> np.ndarray:
        """The read-only (devices, batch_size) point indices of the next step, in each device's draw order."""
        if self.next == len(self.block):
            self.block, self.next = self._block(), 0
        self.next += 1
        return self.block[self.next - 1]

    def _block(self) -> np.ndarray:
        """The next (_BLOCK, devices, batch_size) picks, read-only."""
        b = self.batch_size
        replayed = self._replay() if len(self.replayed) else np.empty((_BLOCK, b, 0), dtype=np.int64)
        block = np.broadcast_to(np.arange(b), (_BLOCK, len(self.n_points), b)).copy()
        block[:, self.replayed] = replayed.transpose(0, 2, 1)
        for d in self.chosen.tolist():
            for step in block:
                step[d] = self.gens[d].choice(int(self.n_points[d]), size=b, replace=False)
        block.flags.writeable = False
        return block

    def _replay(self) -> np.ndarray:
        """The replayed devices' (_BLOCK, batch_size, devices) picks.

        Lemire redraws a rejected draw from the generator's next word, so a
        device's first rejected word is dropped from its column, which moves its
        later words up one row, and the block is read again. A later rejection of
        the same device was judged against a word that has now moved.
        """
        b = self.batch_size
        size = _BLOCK * (2 * b - 1)
        while True:
            if self.cursor + size > self.end.min():
                self._refill()
            m = self.words[self.cursor:self.cursor + size].reshape(_BLOCK, 2 * b - 1, -1) * self.bounds
            # the low product word is the truncation to 32 bits, the draw the high one
            rejected = (m.astype(np.uint32) < self.threshold).reshape(size, -1)
            hit = np.flatnonzero(rejected.any(axis=0))
            if not len(hit):
                break
            for r, row in zip(hit.tolist(), rejected[:, hit].argmax(axis=0).tolist()):
                at = self.cursor + row
                self.words[at:self.end[r] - 1, r] = self.words[at + 1:self.end[r], r]
                self.end[r] -= 1
        vals = np.right_shift(m, 32, out=m).view(np.int64)
        # Floyd: the draw for j stands for j itself when it was picked before
        picks = np.empty((_BLOCK, b, len(self.columns)), dtype=np.int64)
        for t in range(b):
            seen = (picks[:, :t] == vals[:, t, None]).any(axis=1)
            picks[:, t] = np.where(seen, self.tops[t], vals[:, t])
        flat = picks.reshape(-1)
        offsets = np.arange(_BLOCK)[:, None] * picks[0].size + self.columns
        for t, i in enumerate(range(b - 1, 0, -1)):
            at = vals[:, b + t] * len(self.columns) + offsets
            held = flat[at]
            flat[at] = picks[:, i]
            picks[:, i] = held
        self.cursor += size
        return picks

    def _refill(self):
        """Keep every device's unread words and append two blocks of fresh ones."""
        outputs = _BLOCK * (2 * self.batch_size - 1)
        left = self.end - self.cursor
        keep = int(left.max())
        words = np.empty((keep + 2 * outputs, len(left)), dtype=np.uint32)
        words[:keep] = self.words[self.cursor:self.cursor + keep]
        # a device that had rejected draws has fewer unread words than the others;
        # its fresh words follow its own. Little-endian outputs split into their
        # low then high 32-bit halves on any host
        for r, d in enumerate(self.replayed.tolist()):
            raw = self.gens[d].bit_generator.random_raw(outputs)
            words[left[r]:left[r] + 2 * outputs, r] = raw.astype("<u8", copy=False).view("<u4")
        self.words, self.cursor, self.end = words, 0, left + 2 * outputs


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


def solve_optimum(model: LossModel, data: DeviceData) -> np.ndarray:
    """Global minimizer: normal equations for quadratics, full-batch GD for the SVM
    until |grad| < 1e-10, in at most 2,000,000 steps."""
    rho = 1.0 / data.n_devices
    if model.kind == LINEAR_REGRESSION:
        return np.linalg.solve((data.A * rho).sum(axis=0), (data.b * rho).sum(axis=0))
    mu, beta = smoothness_constants(model, data)
    w = np.zeros(model.dim)
    eta = 1.0 / beta
    for _ in range(2_000_000):
        g = (grad_full(model, np.broadcast_to(w, (data.n_devices, model.dim)), data) * rho).sum(axis=0)
        if float(np.linalg.norm(g)) < 1e-10:
            break
        w = w - eta * g
    else:
        raise RuntimeError("SVM optimum solver did not reach |grad| < 1e-10")
    return w


def accuracy(model: LossModel, w: np.ndarray, data: DeviceData):
    """Fraction of points whose predicted label matches the raw integer label.

    The SVM predicts with the sign rule on its +/-1 coding. Regression predicts
    the label whose mean score over its own points is nearest (regularization
    shrinks scores, so raw label values are not usable cut points); a label no
    point carries is never predicted, and a tie goes to the lower label.
    w holds one model (a float result) or stacks models on leading axes (one
    fraction each); one broadcast stacked matmul scores them all.
    """
    scores = np.matmul(data.X, w[..., :, None])[..., 0]
    if model.kind == SQUARED_HINGE_SVM:
        return _one_or_stacked(np.mean((scores >= 0) == (data.y > 0), axis=-1))
    # a running minimum over the labels holds no (models, points, labels) array.
    # It is strict, so a tie keeps the lower label, as argmin does. Labels rise
    # through the loop, so a nearer label is the largest yet: maximum takes it
    # where it is nearer, with no masked copy
    nearest = np.full(scores.shape, np.inf)
    predicted = np.zeros(scores.shape, dtype=int)
    for label in range(data.n_labels):
        rows = np.flatnonzero(data.labels == label)
        if len(rows):
            distance = np.abs(scores - scores[..., rows].mean(axis=-1, keepdims=True))
            np.maximum(predicted, (distance < nearest) * label, out=predicted)
            np.fmin(nearest, distance, out=nearest)
    return _one_or_stacked(np.mean(predicted == data.labels, axis=-1))

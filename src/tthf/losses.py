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


def _check_dims(model: LossModel, w: np.ndarray, part: DevicePartition):
    w = np.asarray(w, dtype=float)
    if w.shape != (model.dim,):
        raise ValueError(f"model vector has shape {w.shape}, expected ({model.dim},)")
    if part.X.shape[1] != model.dim:
        raise ValueError(
            f"feature dimension {part.X.shape[1]} does not match model dim {model.dim}"
        )
    return w


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
    """`data` as a DeviceData: stacked data as is; clusters of partitions, or one partition, stacked."""
    if isinstance(data, DeviceData):
        return data
    return DeviceData(model, [[data]] if isinstance(data, DevicePartition) else data)


def _loss_batch(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Mean per-point loss at w over the rows of X; leading axes of X and y are devices."""
    margins = np.matmul(X, w)
    if model.kind == LINEAR_REGRESSION:
        data_term = 0.5 * np.mean((y - margins) ** 2, axis=-1)
    else:
        slack = np.maximum(0.0, 1.0 - y * margins)
        data_term = 0.5 * np.mean(slack**2, axis=-1)
    return data_term + 0.5 * model.reg * (w @ w)


def local_loss(model: LossModel, w: np.ndarray, part: DevicePartition) -> float:
    """Average per-point loss over the device's dataset, L2 term included."""
    return float(_loss_batch(model, _check_dims(model, w, part), part.X, part.y))


def global_loss(model: LossModel, w: np.ndarray, data) -> float:
    """F(w) = (1/I) sum_i F_i(w): closed form 0.5 w'Aw - b'w + c for regression, else device_mean_loss."""
    data = device_data(model, data)
    if model.kind == LINEAR_REGRESSION:
        A, b, c = data.mean_quad
        return float(0.5 * w @ (A @ w) - b @ w + c)
    return device_mean_loss(model, w, data)


def device_mean_loss(model: LossModel, w: np.ndarray, data) -> float:
    """sum_c varrho_c F_c(w), F_c the mean device loss of cluster c; equals (1/I) sum_i F_i(w)."""
    data = device_data(model, data)
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


def grad_full(model: LossModel, w: np.ndarray, data) -> np.ndarray:
    """Exact gradient of the local loss: at one model w for a DevicePartition, else at
    one model per device, w of shape (n_devices, d), for every device."""
    one = isinstance(data, DevicePartition)
    w, data = _check_dims(model, w, data)[None] if one else w, device_data(model, data)
    if model.kind == LINEAR_REGRESSION:
        g = _quadratic_grad(data.A, data.b, w)
    else:
        g = np.empty((data.n_devices, model.dim))
        for members, X, y in data.blocks:
            g[members] = _grad_batch(model, w[members], X, y)
    return g[0] if one else g


def _quadratic_grad(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Closed-form regression gradients A_i w_i - b_i; leading axes are devices."""
    return np.einsum("dij,dj->di", A, w) - b


def grad_sgd(model: LossModel, w: np.ndarray, data, batch_size: int, rng) -> np.ndarray:
    """Gradient over a uniform without-replacement mini-batch of exactly batch_size points.

    For stacked data, w and rng hold one model and one generator per device; each
    device draws its own batch, in device order, and all run as one block.
    """
    one = isinstance(data, DevicePartition)
    w, data = _check_dims(model, w, data)[None] if one else w, device_data(model, data)
    if not 1 <= batch_size <= data.n_points.min():
        raise ValueError(f"batch_size {batch_size} out of range [1, {data.n_points.min()}]")
    g = grad_batches(model, w, data, np.arange(data.n_devices), batch_size, [rng] if one else rng)
    return g[0] if one else g


def grad_batches(
    model: LossModel, w: np.ndarray, data: DeviceData, devices: np.ndarray, batch_size: int, rngs
) -> np.ndarray:
    """Mini-batch gradients of the listed devices of stacked data, one row per entry.

    Entry j draws batch_size of device devices[j]'s points, uniformly without
    replacement, from rngs[j], in entry order, and takes the gradient at w[j];
    a device may be listed more than once. A batch of every point is drawn
    without the generator and, for regression, takes grad_full's closed form.
    """
    n_points = data.n_points[devices]
    picks = np.array([
        np.arange(n) if n == batch_size else gen.choice(n, size=batch_size, replace=False)
        for n, gen in zip(n_points.tolist(), rngs)
    ])
    rows = data.starts[devices][:, None] + picks
    g = _grad_batch(model, w, data.X[rows], data.y[rows])
    full = n_points == batch_size
    if model.kind == LINEAR_REGRESSION and full.any():
        g[full] = _quadratic_grad(data.A[devices[full]], data.b[devices[full]], w[full])
    return g


def smoothness_constants(model: LossModel, data) -> tuple[float, float]:
    """(mu, beta): strong convexity of the global loss and the worst per-device smoothness.

    For quadratics mu = lambda_min(global data Hessian) + reg; for the squared hinge
    only the regularizer certifies strong convexity. beta is the max over devices of
    the per-device curvature bound lambda_max(H_i) + reg in both cases.
    """
    data = device_data(model, data)
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
    data,
    tol: float = 1e-10,
    max_iter: int = 2_000_000,
) -> np.ndarray:
    """Global minimizer: normal equations for quadratics, full-batch GD for the SVM."""
    data = device_data(model, data)
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

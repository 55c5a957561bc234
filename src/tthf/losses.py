"""Learning tasks: per-device / cluster / global losses, gradients, curvature constants.

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


def local_loss(model: LossModel, w: np.ndarray, part: DevicePartition) -> float:
    """Average per-point loss over the device's dataset, L2 term included."""
    w = _check_dims(model, w, part)
    margins = part.X @ w
    if model.kind == LINEAR_REGRESSION:
        data_term = 0.5 * np.mean((part.y - margins) ** 2)
    else:
        slack = np.maximum(0.0, 1.0 - part.y * margins)
        data_term = 0.5 * np.mean(slack**2)
    return float(data_term + 0.5 * model.reg * (w @ w))


def cluster_loss(model: LossModel, w: np.ndarray, cluster_parts: Sequence[DevicePartition]) -> float:
    """Uniformly weighted mean of the device losses inside one cluster."""
    if len(cluster_parts) == 0:
        raise ValueError("empty cluster")
    return float(np.mean([local_loss(model, w, p) for p in cluster_parts]))


def global_loss(model: LossModel, w: np.ndarray, clusters: Sequence[Sequence[DevicePartition]]) -> float:
    """Cluster losses weighted by relative cluster size; equals the flat device mean."""
    sizes = np.array([len(c) for c in clusters], dtype=float)
    if np.any(sizes == 0):
        raise ValueError("empty cluster")
    weights = sizes / sizes.sum()
    return float(sum(wt * cluster_loss(model, w, c) for wt, c in zip(weights, clusters)))


def grad_point(model: LossModel, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the per-point loss at w."""
    m = float(x @ w)
    if model.kind == LINEAR_REGRESSION:
        return (m - y) * x + model.reg * w
    slack = max(0.0, 1.0 - y * m)
    return -y * slack * x + model.reg * w


def _grad_batch(model: LossModel, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    margins = X @ w
    if model.kind == LINEAR_REGRESSION:
        g = X.T @ (margins - y) / X.shape[0]
    else:
        slack = np.maximum(0.0, 1.0 - y * margins)
        g = X.T @ (-y * slack) / X.shape[0]
    return g + model.reg * w


def grad_full(model: LossModel, w: np.ndarray, part: DevicePartition) -> np.ndarray:
    """Exact gradient of the local loss."""
    w = _check_dims(model, w, part)
    return _grad_batch(model, w, part.X, part.y)


def grad_sgd(
    model: LossModel,
    w: np.ndarray,
    part: DevicePartition,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Gradient over a uniform without-replacement mini-batch of exactly batch_size points."""
    w = _check_dims(model, w, part)
    n = part.n_points
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size {batch_size} out of range [1, {n}]")
    if batch_size == n:
        return _grad_batch(model, w, part.X, part.y)
    idx = rng.choice(n, size=batch_size, replace=False)
    return _grad_batch(model, w, part.X[idx], part.y[idx])


def device_hessian(part: DevicePartition) -> np.ndarray:
    """Data part of the device Hessian, (1/D_i) sum x x^T (regularizer excluded)."""
    return part.X.T @ part.X / part.n_points


def smoothness_constants(
    model: LossModel, clusters: Sequence[Sequence[DevicePartition]]
) -> tuple[float, float]:
    """(mu, beta): strong convexity of the global loss and the worst per-device smoothness.

    For quadratics mu = lambda_min(global data Hessian) + reg; for the squared hinge
    only the regularizer certifies strong convexity. beta is the max over devices of
    the per-device curvature bound lambda_max(H_i) + reg in both cases.
    """
    parts = [p for c in clusters for p in c]
    if not parts:
        raise ValueError("no devices")
    hessians = [device_hessian(p) for p in parts]
    beta = max(float(np.linalg.eigvalsh(h)[-1]) for h in hessians) + model.reg
    if model.kind == LINEAR_REGRESSION:
        weights = _device_weights(clusters)
        h_global = sum(wt * h for wt, h in zip(weights, hessians))
        mu = float(np.linalg.eigvalsh(h_global)[0]) + model.reg
        if mu <= 1e-12:
            raise StrongConvexityError("strong convexity not certified: rank-deficient data and reg=0")
    else:
        mu = model.reg
        if mu <= 0:
            raise StrongConvexityError("strong convexity not certified: squared hinge needs reg > 0")
    return mu, max(beta, mu)


def _device_weights(clusters: Sequence[Sequence[DevicePartition]]) -> list[float]:
    # rho_i = varrho_c * rho_{i,c} = 1/I for every device
    n_dev = sum(len(c) for c in clusters)
    return [1.0 / n_dev] * n_dev


def quadratic_stats(
    model: LossModel, clusters: Sequence[Sequence[DevicePartition]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked per-device (A_i, b_i, c_i) with F_i(w) = 0.5 w'A_i w - b_i'w + c_i."""
    if model.kind != LINEAR_REGRESSION:
        raise ValueError("quadratic stats only defined for linear regression")
    parts = [p for c in clusters for p in c]
    eye = np.eye(model.dim)
    A = np.stack([device_hessian(p) + model.reg * eye for p in parts])
    b = np.stack([p.X.T @ p.y / p.n_points for p in parts])
    c = np.array([0.5 * np.mean(p.y**2) for p in parts])
    return A, b, c


def solve_optimum(
    model: LossModel,
    clusters: Sequence[Sequence[DevicePartition]],
    tol: float = 1e-10,
    max_iter: int = 2_000_000,
) -> np.ndarray:
    """Global minimizer: normal equations for quadratics, full-batch GD for the SVM."""
    parts = [p for c in clusters for p in c]
    weights = _device_weights(clusters)
    if model.kind == LINEAR_REGRESSION:
        A = sum(wt * (device_hessian(p) + model.reg * np.eye(model.dim)) for wt, p in zip(weights, parts))
        b = sum(wt * (p.X.T @ p.y / p.n_points) for wt, p in zip(weights, parts))
        return np.linalg.solve(A, b)
    mu, beta = smoothness_constants(model, clusters)
    w = np.zeros(model.dim)
    eta = 1.0 / beta
    for _ in range(max_iter):
        g = sum(wt * grad_full(model, w, p) for wt, p in zip(weights, parts))
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

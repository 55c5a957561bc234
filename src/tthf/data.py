"""Synthetic dataset generation, device partitioning, and CSV ingestion."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import LINEAR_REGRESSION, SQUARED_HINGE_SVM, DevicePartition
from .seeding import generators

PARTITION_MODES = ("extreme", "moderate", "iid")
MODERATE_LABELS = 3


class CsvFormatError(ValueError):
    """CSV parse failure with row/column diagnostics."""


@dataclass
class LabeledDataset:
    X: np.ndarray
    labels: np.ndarray
    n_labels: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        present = set(np.unique(self.labels).tolist())
        missing = [l for l in range(self.n_labels) if l not in present]
        if missing:
            raise ValueError(f"labels {missing} never appear in the dataset")

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PartitionPlan:
    mode: str
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.mode!r}; expected one of {PARTITION_MODES}")


def gen_synthetic(m: int, n_labels: int, per_label: int, separation: float, seed: int) -> LabeledDataset:
    """Gaussian class clusters with centers `separation` away from the origin."""
    if m < 1 or n_labels < 2 or per_label < 1:
        raise ValueError("need m >= 1, n_labels >= 2, per_label >= 1")
    [rng] = generators([(seed, 0xDA7A)])
    centers = rng.standard_normal((n_labels, m))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= separation
    X = np.empty((n_labels * per_label, m))
    labels = np.empty(n_labels * per_label, dtype=int)
    for l in range(n_labels):
        block = slice(l * per_label, (l + 1) * per_label)
        X[block] = centers[l] + rng.standard_normal((per_label, m))
        labels[block] = l
    return LabeledDataset(X, labels, n_labels)


def encode_targets(labels: np.ndarray, n_labels: int, kind: str) -> np.ndarray:
    """Real regression targets (label index) or +/-1 SVM targets (threshold at midpoint)."""
    labels = np.asarray(labels, dtype=int)
    if kind == LINEAR_REGRESSION:
        return labels.astype(float)
    if kind == SQUARED_HINGE_SVM:
        return np.where(labels >= (n_labels + 1) // 2, 1.0, -1.0)
    raise ValueError(f"unknown loss kind {kind!r}")


def _split_indices(indices: np.ndarray, n_parts: int) -> list[np.ndarray]:
    # even split; remainder points go round-robin to the first parts
    base, rem = divmod(len(indices), n_parts)
    out, pos = [], 0
    for d in range(n_parts):
        take = base + (1 if d < rem else 0)
        out.append(indices[pos : pos + take])
        pos += take
    return out


def partition(dataset: LabeledDataset, n_devices: int, plan: PartitionPlan, kind: str = LINEAR_REGRESSION):
    """Split the dataset across devices in one of the three heterogeneity modes.

    The split is exact: device datasets are pairwise disjoint and their union is the
    dataset. Points inside a label are assigned randomly without replacement.
    """
    if n_devices < 1:
        raise ValueError("need at least one device")
    [rng] = generators([(plan.seed, 0x5E1EC7)])
    n_labels = dataset.n_labels
    by_label = [np.flatnonzero(dataset.labels == l) for l in range(n_labels)]

    device_label_sets: list[list[int]]
    if plan.mode == "iid":
        perm = rng.permutation(dataset.n_points)
        chunks = _split_indices(perm, n_devices)
        return _build_parts(dataset, chunks, kind)
    if plan.mode == "extreme":
        device_label_sets = [[d % n_labels] for d in range(n_devices)]
    else:  # moderate
        if n_labels < MODERATE_LABELS:
            raise ValueError(f"moderate mode needs at least {MODERATE_LABELS} labels")
        cycle = rng.permutation(n_labels)
        device_label_sets = [
            sorted({int(cycle[(MODERATE_LABELS * d + j) % n_labels]) for j in range(MODERATE_LABELS)})
            for d in range(n_devices)
        ]

    holders = [[d for d, ls in enumerate(device_label_sets) if l in ls] for l in range(n_labels)]
    chunks: list[list[np.ndarray]] = [[] for _ in range(n_devices)]
    for l in range(n_labels):
        if not holders[l]:
            continue
        shuffled = rng.permutation(by_label[l])
        for dev, piece in zip(holders[l], _split_indices(shuffled, len(holders[l]))):
            if len(piece):
                chunks[dev].append(piece)
    merged = [np.concatenate(c) if c else np.empty(0, dtype=int) for c in chunks]
    return _build_parts(dataset, merged, kind)


def _build_parts(dataset: LabeledDataset, chunks, kind: str) -> list[DevicePartition]:
    empty = [d for d, idx in enumerate(chunks) if len(idx) == 0]
    if empty:
        raise ValueError(f"dataset too small: devices {empty} would receive no points")
    parts = []
    for d, idx in enumerate(chunks):
        idx = np.sort(np.asarray(idx))
        labels = dataset.labels[idx]
        parts.append(
            DevicePartition(
                device_id=d,
                X=dataset.X[idx].copy(),
                y=encode_targets(labels, dataset.n_labels, kind),
                labels=labels.copy(),
            )
        )
    return parts


def load_csv(path, has_header: bool = False) -> LabeledDataset:
    """Read a numeric CSV whose last column is the integer class label."""
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for r, row in enumerate(reader, start=1):
            if r == 1 and has_header:
                continue
            if not row:
                continue
            parsed = []
            for c, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvFormatError(f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}") from None
            if rows and len(parsed) != len(rows[0]):
                raise CsvFormatError(f"{path}: row {r} has {len(parsed)} columns, expected {len(rows[0])}")
            rows.append(parsed)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    if len(rows[0]) < 2:
        raise CsvFormatError(f"{path}: need at least one feature column plus a label column")
    arr = np.array(rows, dtype=float)
    raw_labels = arr[:, -1]
    int_labels = np.rint(raw_labels).astype(int)
    if np.max(np.abs(raw_labels - int_labels)) > 1e-9 or int_labels.min() < 0:
        bad = int(np.argmax(np.abs(raw_labels - int_labels)) + 1)
        raise CsvFormatError(f"{path}: label column must hold non-negative integers (row {bad})")
    return LabeledDataset(arr[:, :-1], int_labels, int(int_labels.max()) + 1)

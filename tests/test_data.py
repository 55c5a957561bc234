"""Dataset generation, partitioning modes, and CSV round trips."""

import csv
from pathlib import Path

import numpy as np
import pytest

from tthf import bounds, data, losses
from tthf.data import CsvFormatError, PartitionPlan

from conftest import local_grad


def save_csv(dataset, path):
    """Write the features plus the label column: the inverse of data.load_csv."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for x, label in zip(dataset.X, dataset.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(label)])


class TestGenSynthetic:
    def test_deterministic_under_seed(self):
        a = data.gen_synthetic(4, 3, 10, 2.0, seed=5)
        b = data.gen_synthetic(4, 3, 10, 2.0, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_separation_is_chance_level(self):
        ds = data.gen_synthetic(6, 2, 300, 0.0, seed=1)
        model = losses.LossModel(losses.LINEAR_REGRESSION, reg=0.01, dim=6)
        parts = data.partition(ds, 1, PartitionPlan("iid", seed=2), kind=model.kind)
        stacked = losses.DeviceData(model, [parts])
        w_star = losses.solve_optimum(model, stacked)
        acc = losses.accuracy(model, w_star, stacked)
        assert abs(acc - 0.5) < 0.05

    def test_high_separation_is_nearly_separable(self):
        ds = data.gen_synthetic(10, 2, 200, 10.0, seed=2)
        model = losses.LossModel(losses.LINEAR_REGRESSION, reg=0.01, dim=10)
        parts = data.partition(ds, 1, PartitionPlan("iid", seed=3), kind=model.kind)
        stacked = losses.DeviceData(model, [parts])
        w_star = losses.solve_optimum(model, stacked)
        assert losses.accuracy(model, w_star, stacked) >= 0.99

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            data.gen_synthetic(0, 2, 10, 1.0, 0)
        with pytest.raises(ValueError):
            data.gen_synthetic(3, 1, 10, 1.0, 0)


class TestPartition:
    def test_iid_even_split(self):
        ds = data.gen_synthetic(3, 4, 25, 1.0, seed=4)  # 100 points
        parts = data.partition(ds, 4, PartitionPlan("iid", seed=5))
        assert [p.n_points for p in parts] == [25, 25, 25, 25]

    def test_extreme_single_label_per_device(self):
        ds = data.gen_synthetic(3, 10, 30, 1.0, seed=6)
        parts = data.partition(ds, 20, PartitionPlan("extreme", seed=7))
        for p in parts:
            assert len(set(p.labels.tolist())) == 1

    def test_moderate_three_labels_per_device(self):
        ds = data.gen_synthetic(3, 10, 40, 1.0, seed=8)
        parts = data.partition(ds, 10, PartitionPlan("moderate", seed=9))
        for p in parts:
            assert len(set(p.labels.tolist())) == 3

    @pytest.mark.parametrize("mode", ["extreme", "moderate", "iid"])
    def test_partition_is_exact(self, mode):
        ds = data.gen_synthetic(3, 5, 37, 1.0, seed=10)
        parts = data.partition(ds, 7, PartitionPlan(mode, seed=11))
        reconstructed = np.concatenate([p.X for p in parts])
        assert reconstructed.shape[0] == ds.n_points
        # disjoint union: sorted rows must match exactly
        key = lambda arr: np.lexsort(arr.T[::-1])
        np.testing.assert_array_equal(
            reconstructed[key(reconstructed)], ds.X[key(ds.X)]
        )

    def test_too_small_dataset_rejected(self):
        ds = data.gen_synthetic(3, 2, 2, 1.0, seed=12)  # 4 points
        with pytest.raises(ValueError, match="too small"):
            data.partition(ds, 10, PartitionPlan("iid", seed=13))

    def test_svm_targets_are_pm1(self):
        ds = data.gen_synthetic(3, 4, 10, 1.0, seed=14)
        parts = data.partition(ds, 4, PartitionPlan("iid", seed=15), kind=losses.SQUARED_HINGE_SVM)
        values = np.unique(np.concatenate([p.y for p in parts]))
        assert set(values.tolist()) <= {-1.0, 1.0}


class TestHeterogeneityOrdering:
    def test_gradient_diversity_orders_partition_modes(self):
        # the delta' surrogate must rank extreme >= moderate >= iid on every seed;
        # small clusters keep the moderate mode from covering the whole label set
        for seed in range(10):
            ds = data.gen_synthetic(4, 10, 200, 2.0, seed=seed)
            model = losses.LossModel(losses.LINEAR_REGRESSION, reg=0.2, dim=4)
            deltas = {}
            for mode in ("extreme", "moderate", "iid"):
                flat = data.partition(ds, 20, PartitionPlan(mode, seed=seed + 100), kind=model.kind)
                clusters = [flat[i * 2 : (i + 1) * 2] for i in range(10)]
                w = np.zeros(4)
                grads = [sum(local_grad(model, w, p) for p in c) / len(c) for c in clusters]
                g_bar = sum(grads) / len(grads)
                deltas[mode] = bounds.diversity_fit(grads, g_bar, 0.0, zeta=0.0)
            assert deltas["extreme"] >= deltas["moderate"] >= deltas["iid"], (seed, deltas)


class TestCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = data.load_csv(path)
        assert ds.n_points == 3
        assert ds.n_labels == 2

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(CsvFormatError, match=r"row 2, column 2"):
            data.load_csv(path)

    def test_round_trip(self, tmp_path):
        ds = data.gen_synthetic(5, 3, 20, 1.5, seed=16)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = data.load_csv(path)
        np.testing.assert_allclose(back.X, ds.X, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = data.load_csv(path, has_header=True)
        assert ds.n_points == 2

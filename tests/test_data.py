from __future__ import annotations

import numpy as np
import pytest

from fragpair.data import (
    DataError,
    Dataset,
    default_feature_cols,
    feature_curve,
    generate_synthetic,
    inject_gaussian_noise,
    inject_symmetric_noise,
    load_csv,
    split_dataset,
    write_csv,
    write_jsonl,
)


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_rows_min_max(self, tmp_path) -> None:
        path = _write(
            tmp_path / "d.csv",
            "a,b,label\n0.5,1.5,1.0\n0.1,0.2,2.0\n0.9,0.8,3.0\n",
        )
        ds = load_csv(path, ["a", "b"], "label")
        assert ds.n == 3 and ds.d == 2
        assert ds.label_min == 1.0 and ds.label_max == 3.0

    def test_no_gt_column(self, tmp_path) -> None:
        path = _write(tmp_path / "d.csv", "a,label\n1,1\n2,2\n")
        ds = load_csv(path, ["a"], "label")
        assert ds.y_gt is None

    def test_gt_column(self, tmp_path) -> None:
        path = _write(tmp_path / "d.csv", "a,label,gt\n1,1,1.5\n2,2,2.5\n")
        ds = load_csv(path, ["a"], "label", gt_col="gt")
        assert np.allclose(ds.y_gt, [1.5, 2.5])

    def test_unparseable_cell_names_row(self, tmp_path) -> None:
        path = _write(tmp_path / "d.csv", "a,label\n1,1\n2,oops\n3,3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, ["a"], "label")

    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", ["a"], "label")

    def test_utf8_byte_order_mark_skipped(self, tmp_path) -> None:
        # Spreadsheet exports often start with EF BB BF before the header.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx0,label\n0.1,1\n0.2,2\n")
        ds = load_csv(path, ["x0"], "label")
        assert np.array_equal(ds.x[:, 0], [0.1, 0.2]) and np.array_equal(ds.y, [1.0, 2.0])

    def test_missing_column(self, tmp_path) -> None:
        path = _write(tmp_path / "d.csv", "a,label\n1,1\n2,2\n")
        with pytest.raises(DataError, match="missing columns: b"):
            load_csv(path, ["a", "b"], "label")


class TestDatasetInvariants:
    def test_one_label_value_is_a_dataset(self) -> None:
        # A small held-out split may hold one label value; only fragmenting needs a range.
        ds = Dataset(x=np.ones((3, 1)), y=np.full(3, 7.0))
        assert ds.label_min == ds.label_max == 7.0 and ds.label_range == 0.0

    def test_non_finite_rejected(self) -> None:
        with pytest.raises(DataError):
            Dataset(x=np.ones((2, 1)), y=np.array([1.0, np.nan]))


class TestSyntheticGeneration:
    def test_noiseless_lipschitz_bound(self) -> None:
        # Per-coordinate Lipschitz constants of the curve basis on [0, 1].
        ds = generate_synthetic(n=300, d=2, label_lo=0.0, label_hi=100.0,
                                feature_noise_std=0.0, seed=3)
        lip = np.sqrt(1.0 + (np.pi / 2.0) ** 2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.integers(0, ds.n, size=2)
            gap = abs(ds.y_gt[a] - ds.y_gt[b]) / 100.0
            dist = np.linalg.norm(ds.x[a] - ds.x[b])
            assert dist <= lip * gap + 1e-12

    def test_same_seed_identical(self) -> None:
        a = generate_synthetic(500, 3, 0.0, 10.0, 0.2, seed=11)
        b = generate_synthetic(500, 3, 0.0, 10.0, 0.2, seed=11)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_nearest_feature_neighbor_label_gap(self) -> None:
        # Correlation property: feature proximity implies label proximity.
        ds = generate_synthetic(n=2000, d=2, label_lo=0.0, label_hi=100.0,
                                feature_noise_std=0.1, seed=7)
        d2 = ((ds.x[:, None, :] - ds.x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        nn = d2.argmin(axis=1)
        median_gap = np.median(np.abs(ds.y_gt - ds.y_gt[nn]))
        assert median_gap < 10.0

    def test_noiseless_curve_inverts_exactly(self) -> None:
        ds = generate_synthetic(200, 4, -5.0, 5.0, 0.0, seed=2)
        recovered = -5.0 + ds.x[:, 0] * 10.0
        assert np.max(np.abs(recovered - ds.y_gt)) < 1e-9

    def test_curve_cycles_beyond_four_dims(self) -> None:
        t = np.linspace(0.0, 1.0, 9)
        x = feature_curve(t, 6)
        assert x.shape == (9, 6)
        assert np.array_equal(x[:, 4], x[:, 0])
        assert np.array_equal(x[:, 5], x[:, 1])

    def test_invalid_bounds(self) -> None:
        with pytest.raises(DataError):
            generate_synthetic(10, 2, 5.0, 5.0, 0.1, seed=0)


class TestSymmetricNoise:
    def _clean(self, n: int = 10000) -> Dataset:
        return generate_synthetic(n, 2, 0.0, 100.0, 0.1, seed=5)

    def test_rate_zero_is_noop(self) -> None:
        ds = self._clean(500)
        noisy = inject_symmetric_noise(ds, 0.0, seed=1)
        assert np.array_equal(noisy.y, noisy.y_gt)

    def test_rate_one_corrupts_everything(self) -> None:
        ds = self._clean(2000)
        noisy = inject_symmetric_noise(ds, 1.0, seed=1)
        assert np.mean(noisy.y != noisy.y_gt) > 0.999

    def test_corrupted_fraction_concentrates(self) -> None:
        noisy = inject_symmetric_noise(self._clean(), 0.4, seed=9)
        fraction = np.mean(noisy.y != noisy.y_gt)
        assert 0.38 <= fraction <= 0.42

    def test_features_and_ground_truth_untouched(self) -> None:
        ds = self._clean(300)
        noisy = inject_symmetric_noise(ds, 0.5, seed=2)
        assert np.array_equal(noisy.x, ds.x)
        assert np.array_equal(noisy.y_gt, ds.y_gt)

    def test_reproducible(self) -> None:
        ds = self._clean(300)
        a = inject_symmetric_noise(ds, 0.3, seed=4)
        b = inject_symmetric_noise(ds, 0.3, seed=4)
        assert np.array_equal(a.y, b.y)

    def test_rate_out_of_range(self) -> None:
        with pytest.raises(DataError):
            inject_symmetric_noise(self._clean(10), 1.5, seed=0)


class TestGaussianNoise:
    def _clean(self, n: int = 10000) -> Dataset:
        return generate_synthetic(n, 2, 0.0, 100.0, 0.1, seed=5)

    def test_vanishing_noise(self) -> None:
        ds = self._clean(500)
        noisy = inject_gaussian_noise(ds, 1e-9, seed=3)
        assert np.max(np.abs(noisy.y - noisy.y_gt)) < 1e-6

    def test_reproducible(self) -> None:
        ds = self._clean(300)
        a = inject_gaussian_noise(ds, 0.3, seed=6)
        b = inject_gaussian_noise(ds, 0.3, seed=6)
        assert np.array_equal(a.y, b.y)

    def test_mean_deviation_matches_monte_carlo(self) -> None:
        # Independent simulation of the same process, clipping included.
        rng = np.random.default_rng(123)
        y_gt = rng.uniform(0.0, 100.0, 200000)
        sigma = rng.uniform(0.0, 30.0, 200000)
        y = np.clip(y_gt + rng.normal(0.0, 1.0, 200000) * sigma, 0.0, 100.0)
        oracle = np.mean(np.abs(y - y_gt))

        noisy = inject_gaussian_noise(self._clean(), 0.3, seed=8)
        observed = np.mean(np.abs(noisy.y - noisy.y_gt))
        assert abs(observed - oracle) <= 0.1 * oracle

    def test_clipped_to_range(self) -> None:
        noisy = inject_gaussian_noise(self._clean(2000), 0.5, seed=1)
        assert noisy.y.min() >= 0.0 and noisy.y.max() <= 100.0

    def test_invalid_std_frac(self) -> None:
        with pytest.raises(DataError):
            inject_gaussian_noise(self._clean(10), 0.0, seed=0)


class TestNoiseSpec:
    """A config's ``noise`` object: checked by the config, applied by ``load_dataset``."""

    DATASET = {"kind": "synthetic", "n": 200, "d": 2, "label_lo": 0.0, "label_hi": 10.0}

    def test_symmetric_dispatch(self) -> None:
        from fragpair.config import ExperimentConfig
        from fragpair.pipeline import load_dataset, prepare_splits
        from fragpair.rng import derive_seed

        cfg = ExperimentConfig.from_dict(
            {"dataset": self.DATASET, "noise": {"kind": "symmetric", "rate": 0.5, "seed": 7}}
        )
        train, test = prepare_splits(cfg)
        noisy = inject_symmetric_noise(load_dataset(cfg.replace(noise=None)), 0.5, 7)
        want_train, want_test = split_dataset(noisy, cfg.test_frac, derive_seed(cfg.seed, "split"))
        assert np.array_equal(train.y, want_train.y)
        assert np.array_equal(test.y, want_test.y)

    def test_wrong_parameter_combination(self) -> None:
        from fragpair.config import ConfigError, ExperimentConfig

        with pytest.raises(ConfigError, match="unknown noise keys: max_std_frac"):
            ExperimentConfig.from_dict({"dataset": self.DATASET, "noise": {
                "kind": "symmetric", "rate": 0.5, "max_std_frac": 0.3}})
        with pytest.raises(ConfigError, match="noise.max_std_frac"):
            ExperimentConfig.from_dict({"dataset": self.DATASET, "noise": {"kind": "gaussian"}})


class TestRoundTrip:
    def test_csv_round_trip_with_ground_truth(self, tmp_path) -> None:
        ds = generate_synthetic(50, 3, 0.0, 10.0, 0.2, seed=1)
        noisy = inject_symmetric_noise(ds, 0.5, seed=2)
        path = tmp_path / "out.csv"
        write_csv(noisy, path)
        back = load_csv(path, default_feature_cols(3), "label", gt_col="label_gt")
        assert np.array_equal(back.x, noisy.x)
        assert np.array_equal(back.y, noisy.y)
        assert np.array_equal(back.y_gt, noisy.y_gt)

    def test_noisy_flag_column(self, tmp_path) -> None:
        ds = generate_synthetic(30, 2, 0.0, 10.0, 0.1, seed=1)
        noisy = inject_symmetric_noise(ds, 0.5, seed=2)
        path = tmp_path / "out.csv"
        write_csv(noisy, path)
        header, *rows = path.read_text().strip().split("\n")
        assert header.split(",")[-1] == "noisy"
        flags = np.array([int(r.split(",")[-1]) for r in rows])
        assert np.array_equal(flags, (noisy.y != noisy.y_gt).astype(int))

    def test_jsonl_mirrors_schema(self, tmp_path) -> None:
        import json

        ds = generate_synthetic(5, 2, 0.0, 10.0, 0.0, seed=1)
        path = tmp_path / "out.jsonl"
        write_jsonl(ds, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 5
        assert rows[0]["label"] == rows[0]["label_gt"]
        assert rows[0]["noisy"] is False


class TestSplit:
    def test_partition_and_determinism(self) -> None:
        ds = generate_synthetic(100, 2, 0.0, 10.0, 0.1, seed=4)
        train_a, test_a = split_dataset(ds, 0.2, seed=3)
        train_b, test_b = split_dataset(ds, 0.2, seed=3)
        assert train_a.n == 80 and test_a.n == 20
        assert np.array_equal(train_a.x, train_b.x)
        assert np.array_equal(test_a.y, test_b.y)
        merged = np.sort(np.concatenate([train_a.y, test_a.y]))
        assert np.array_equal(merged, np.sort(ds.y))

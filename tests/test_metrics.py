from __future__ import annotations

import numpy as np
import pytest

from fragpair.data import Dataset, generate_synthetic, inject_symmetric_noise
from fragpair.metrics import (
    MetricsError,
    error_residual_ratio,
    mae,
    mrae,
    selection_rate,
)


def noisy_dataset(n: int = 2000, rate: float = 0.4, seed: int = 0) -> Dataset:
    clean = generate_synthetic(n, 2, 0.0, 100.0, 0.1, seed=seed)
    return inject_symmetric_noise(clean, rate, seed=seed + 1)


class TestMae:
    def test_exact_match_is_zero(self) -> None:
        v = np.array([1.0, 2.0, 3.0])
        assert mae(v, v) == 0.0

    def test_hand_arithmetic(self) -> None:
        assert mae(np.array([1.0, 3.0]), np.array([2.0, 2.0])) == 1.0

    def test_matches_two_pass_oracle(self) -> None:
        rng = np.random.default_rng(1)
        preds = rng.normal(size=1000)
        targets = rng.normal(size=1000)
        total = 0.0
        for p, t in zip(preds, targets):
            total += abs(p - t)
        assert abs(mae(preds, targets) - total / 1000) < 1e-12

    def test_length_mismatch(self) -> None:
        with pytest.raises(MetricsError):
            mae(np.ones(3), np.ones(4))


class TestMrae:
    def test_equal_errors_zero(self) -> None:
        assert mrae(3.5, 3.5) == 0.0

    def test_published_style_ratio(self) -> None:
        # A model 12.64% worse than its noise-free reference.
        rho = 7.0
        assert mrae(1.1264 * rho, rho) == pytest.approx(0.1264, abs=1e-12)

    def test_negative_when_better_than_reference(self) -> None:
        assert mrae(0.9, 1.0) < 0.0

    def test_strictly_increasing_in_error(self) -> None:
        rho = 2.0
        values = [mrae(e, rho) for e in np.linspace(0.1, 5.0, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_nonpositive_reference_rejected(self) -> None:
        with pytest.raises(MetricsError):
            mrae(1.0, 0.0)


class TestErrorResidualRatio:
    def test_full_selection_is_one(self) -> None:
        ds = noisy_dataset(500)
        assert error_residual_ratio(np.arange(ds.n), ds) == pytest.approx(1.0)

    def test_clean_only_selection_is_zero(self) -> None:
        ds = noisy_dataset(500)
        clean_idx = np.flatnonzero(ds.y == ds.y_gt)
        assert error_residual_ratio(clean_idx, ds) == 0.0

    def test_hand_arithmetic(self) -> None:
        y = np.array([10.0, 20.0, 30.0, 40.0])
        y_gt = np.array([10.0, 20.0, 34.0, 44.0])  # errors 0, 0, 4, 4
        ds = Dataset(x=np.zeros((4, 1)) + np.arange(4)[:, None], y=y, y_gt=y_gt)
        assert error_residual_ratio(np.array([0, 2]), ds) == pytest.approx(1.0)

    def test_empty_selection_absent(self) -> None:
        ds = noisy_dataset(100)
        assert error_residual_ratio(np.array([], dtype=int), ds) is None

    def test_noise_free_dataset_absent(self) -> None:
        clean = generate_synthetic(100, 2, 0.0, 10.0, 0.1, seed=3)
        assert error_residual_ratio(np.arange(100), clean) is None

    def test_missing_ground_truth_rejected(self) -> None:
        ds = Dataset(x=np.zeros((3, 1)), y=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(MetricsError):
            error_residual_ratio(np.array([0]), ds)

    def test_affine_relabeling_invariance(self) -> None:
        ds = noisy_dataset(800)
        selected = np.arange(0, 800, 3)
        base = error_residual_ratio(selected, ds)
        rescaled = Dataset(x=ds.x.copy(), y=2.0 * ds.y + 5.0, y_gt=2.0 * ds.y_gt + 5.0)
        assert abs(error_residual_ratio(selected, rescaled) - base) < 1e-12

    def test_random_selection_concentrates_near_one(self) -> None:
        ds = noisy_dataset(5000)
        rng = np.random.default_rng(7)
        for _ in range(5):
            sel = rng.choice(ds.n, size=700, replace=False)
            assert abs(error_residual_ratio(sel, ds) - 1.0) < 0.1


class TestSelectionRate:
    def test_full_and_empty(self) -> None:
        ds = noisy_dataset(100)
        assert selection_rate(np.arange(100), ds) == 1.0
        assert selection_rate(np.array([], dtype=int), ds) == 0.0

    def test_fraction(self) -> None:
        ds = noisy_dataset(100)
        assert selection_rate(np.arange(40), ds) == pytest.approx(0.4)

    def test_out_of_range_rejected(self) -> None:
        ds = noisy_dataset(10)
        with pytest.raises(MetricsError):
            selection_rate(np.array([11]), ds)

    def test_duplicates_rejected(self) -> None:
        ds = noisy_dataset(10)
        with pytest.raises(MetricsError):
            selection_rate(np.array([1, 1]), ds)


@pytest.mark.parametrize("metric", [error_residual_ratio, selection_rate])
@pytest.mark.parametrize("index", [-1, 10])
def test_index_outside_the_dataset_rejected(metric, index) -> None:
    with pytest.raises(MetricsError, match="^selected index outside the dataset$"):
        metric(np.array([0, index]), noisy_dataset(10))

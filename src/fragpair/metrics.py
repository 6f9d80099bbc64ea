"""Evaluation metrics for the per-epoch record."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .data import Dataset


class MetricsError(ValueError):
    pass


def mae(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean absolute error between two equal-length vectors."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise MetricsError("predictions and targets must share a non-empty shape")
    return float(np.mean(np.abs(predictions - targets)))


def mrae(e: float, rho: float) -> float:
    """Relative error against a noise-free reference: e / rho - 1.

    Reported as a fraction; multiply by 100 for a percentage.  Negative means
    better than the noise-free reference.
    """
    if rho <= 0:
        raise MetricsError("reference error rho must be positive")
    return e / rho - 1.0


def error_residual_ratio(selected_indices: np.ndarray, ds: Dataset) -> Optional[float]:
    """Mean label error of the selected set over the mean error of the dataset.

    1.0 means the selection is no cleaner than picking at random; 0.0 means
    every selected label is exact.  Returns None when the ratio is undefined:
    an empty selection or a noise-free dataset (zero denominator).
    """
    if ds.y_gt is None:
        raise MetricsError("error residual ratio requires ground-truth labels")
    idx = np.asarray(selected_indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= ds.n):
        raise MetricsError("selected index outside the dataset")
    errors = np.abs(ds.y - ds.y_gt)
    denominator = float(errors.mean())
    if idx.size == 0 or denominator == 0.0:
        return None
    return float(errors[idx].mean()) / denominator


def selection_rate(selected_indices: np.ndarray, ds: Dataset) -> float:
    """Fraction of the dataset selected."""
    idx = np.asarray(selected_indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= ds.n):
        raise MetricsError("selected index outside the dataset")
    if idx.size and np.bincount(idx, minlength=ds.n).max() > 1:
        raise MetricsError("selected indices must be unique")
    return idx.size / ds.n


"""Dataset container, CSV/JSONL ingestion, synthetic generation and label-noise injection."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .rng import stream


class DataError(ValueError):
    """Raised for malformed datasets, files or noise parameters."""


@dataclass
class Dataset:
    """Feature matrix plus observed (possibly noisy) and optional ground-truth labels.

    ``label_min``/``label_max`` are always the min/max of the *observed*
    labels, recomputed at construction.  The range may be degenerate (one
    label value); only fragmenting the labels needs it wider.
    """

    x: np.ndarray
    y: np.ndarray
    y_gt: Optional[np.ndarray] = None
    label_min: float = field(init=False)
    label_max: float = field(init=False)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape[0] == 0:
            raise DataError("feature matrix must be (n, d) with n >= 1")
        if self.y.shape != (self.x.shape[0],):
            raise DataError("label vector length must match feature rows")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise DataError("features and observed labels must be finite")
        if self.y_gt is not None:
            self.y_gt = np.asarray(self.y_gt, dtype=np.float64)
            if self.y_gt.shape != self.y.shape:
                raise DataError("ground-truth vector length must match labels")
            if not np.all(np.isfinite(self.y_gt)):
                raise DataError("ground-truth labels must be finite")
        self.label_min = float(self.y.min())
        self.label_max = float(self.y.max())

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def label_range(self) -> float:
        return self.label_max - self.label_min

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        y_gt = None if self.y_gt is None else self.y_gt[idx].copy()
        return Dataset(x=self.x[idx].copy(), y=self.y[idx].copy(), y_gt=y_gt)


def feature_curve(t: np.ndarray, d: int) -> np.ndarray:
    """Smooth injective map from normalized labels t in [0, 1] into R^d.

    Coordinates cycle through ``[t, sin(2*pi*t)/4, cos(2*pi*t)/4, t**2]``.
    The first coordinate is t itself, so the map is injective and invertible,
    and nearby labels always produce nearby features.
    """
    t = np.asarray(t, dtype=np.float64)
    basis = (
        lambda u: u,
        lambda u: np.sin(2.0 * np.pi * u) / 4.0,
        lambda u: np.cos(2.0 * np.pi * u) / 4.0,
        lambda u: u * u,
    )
    return np.stack([basis[k % 4](t) for k in range(d)], axis=-1)


def generate_synthetic(
    n: int,
    d: int,
    label_lo: float,
    label_hi: float,
    feature_noise_std: float,
    seed: int,
) -> Dataset:
    """Sample labels uniformly and embed them on the feature curve plus noise.

    Ground truth labels are preserved in ``y_gt``; observed labels start equal
    to the ground truth (apply a noise injector afterwards to corrupt them).
    """
    if n < 1 or d < 1:
        raise DataError("n and d must be >= 1")
    if not label_hi > label_lo:
        raise DataError("label_hi must exceed label_lo")
    if feature_noise_std < 0:
        raise DataError("feature_noise_std must be >= 0")
    rng = stream(seed, "synthetic")
    y_gt = rng.uniform(label_lo, label_hi, size=n)
    t = (y_gt - label_lo) / (label_hi - label_lo)
    x = feature_curve(t, d)
    if feature_noise_std > 0:
        x = x + rng.normal(0.0, feature_noise_std, size=(n, d))
    return Dataset(x=x, y=y_gt.copy(), y_gt=y_gt)


def _ground_truth(ds: Dataset) -> np.ndarray:
    # Missing ground truth means the current observed labels are treated as clean.
    return ds.y if ds.y_gt is None else ds.y_gt


def inject_symmetric_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Replace each label, independently with probability ``rate``, by a
    uniform draw over the observed label range.  Features and ground truth
    are untouched."""
    if not 0.0 <= rate <= 1.0:
        raise DataError("rate must lie in [0, 1]")
    y_gt = _ground_truth(ds)
    rng = stream(seed, "symmetric_noise")
    corrupt = rng.random(ds.n) < rate
    replacements = rng.uniform(ds.label_min, ds.label_max, size=ds.n)
    y = np.where(corrupt, replacements, y_gt)
    return Dataset(x=ds.x.copy(), y=y, y_gt=y_gt.copy())


def inject_gaussian_noise(ds: Dataset, max_std_frac: float, seed: int) -> Dataset:
    """Add zero-mean gaussian noise with a per-sample random standard
    deviation drawn uniformly from (0, max_std_frac * label range], clipping
    the result back into the observed label range."""
    if not 0.0 < max_std_frac <= 1.0:
        raise DataError("max_std_frac must lie in (0, 1]")
    y_gt = _ground_truth(ds)
    rng = stream(seed, "gaussian_noise")
    sigma = rng.uniform(0.0, max_std_frac * ds.label_range, size=ds.n)
    y = y_gt + rng.normal(0.0, 1.0, size=ds.n) * sigma
    y = np.clip(y, ds.label_min, ds.label_max)
    return Dataset(x=ds.x.copy(), y=y, y_gt=y_gt.copy())


def split_dataset(ds: Dataset, test_frac: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded proportional split into (train, test)."""
    if not 0.0 < test_frac < 1.0:
        raise DataError("test_frac must lie in (0, 1)")
    perm = stream(seed, "split").permutation(ds.n)
    n_test = max(1, int(round(ds.n * test_frac)))
    if n_test >= ds.n:
        raise DataError("split leaves no training samples")
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


def _parse_cell(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"row {row}: cannot parse {column}={raw!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: non-finite value in column {column}")
    return value


def load_csv(
    path: str | Path,
    feature_cols: Sequence[str],
    label_col: str,
    gt_col: Optional[str] = None,
) -> Dataset:
    """Read a dataset from a headered UTF-8 CSV file (a byte-order mark is skipped).

    Row indices in error messages are 1-based data rows (the header is row 0).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        wanted = list(feature_cols) + [label_col] + ([gt_col] if gt_col is not None else [])
        missing = [c for c in wanted if c not in header]
        if missing:
            raise DataError(f"missing columns: {', '.join(missing)}")
        xs, ys, gts = [], [], []
        for row_idx, row in enumerate(reader, start=1):
            xs.append([_parse_cell(row[c], c, row_idx) for c in feature_cols])
            ys.append(_parse_cell(row[label_col], label_col, row_idx))
            if gt_col is not None:
                gts.append(_parse_cell(row[gt_col], gt_col, row_idx))
    if not xs:
        raise DataError(f"{path} holds no data rows")
    return Dataset(
        x=np.asarray(xs),
        y=np.asarray(ys),
        y_gt=np.asarray(gts) if gt_col is not None else None,
    )


def default_feature_cols(d: int) -> list[str]:
    return [f"x{k}" for k in range(d)]


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as UTF-8 CSV mirroring the input schema.

    When ground truth is known, a ``label_gt`` column and a ``noisy`` flag
    column (1 where the observed label differs from ground truth) are added.
    Floats are printed with ``repr`` so a reload round-trips exactly.
    """
    path = Path(path)
    cols = default_feature_cols(ds.d) + ["label"]
    if ds.y_gt is not None:
        cols += ["label_gt", "noisy"]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.x[i]] + [repr(float(ds.y[i]))]
            if ds.y_gt is not None:
                row += [repr(float(ds.y_gt[i])), str(int(ds.y[i] != ds.y_gt[i]))]
            writer.writerow(row)


def write_jsonl(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as JSON lines with the same schema as :func:`write_csv`."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(ds.n):
            record: dict = {
                "x": [float(v) for v in ds.x[i]],
                "label": float(ds.y[i]),
            }
            if ds.y_gt is not None:
                record["label_gt"] = float(ds.y_gt[i])
                record["noisy"] = bool(ds.y[i] != ds.y_gt[i])
            fh.write(json.dumps(record) + "\n")

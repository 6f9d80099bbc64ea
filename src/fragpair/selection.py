"""Fragment priors, agreement votes and Bernoulli sampling of the clean set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .experts import (
    ExpertEnsemble,
    ExpertError,
    FeatureBank,
    classify_pair,
    knn_classify,
    knn_votes,
    pair_features,
    pair_logits,  # not called here; benchmark/tracing.py patches selection.pair_logits
    predict_label,
)
from .fragments import FragmentationScheme
from .rng import stream

# Inverse-distance gate value at which the softmax is already effectively
# one-hot; capping here removes the division-by-zero singularity at exact
# fragment means without changing the argmax.
GATE_CAP = 1e6

PREDICTIVE_KINDS = ("classifier", "regression")


def prior_rows(
    ys: np.ndarray, means: np.ndarray, label_range: float, gate_cap: float = GATE_CAP
) -> np.ndarray:
    """Softmax fragment weights from inverse label distance, one row per label."""
    ys = np.asarray(ys, dtype=np.float64)
    dist = np.abs(ys[:, None] - np.asarray(means)[None, :])
    with np.errstate(divide="ignore"):
        gate = np.minimum(label_range / dist, gate_cap)
    gate -= gate.max(axis=1, keepdims=True)
    weights = np.exp(gate)
    return weights / weights.sum(axis=1, keepdims=True)


def fragment_prior(y: float, scheme: FragmentationScheme) -> np.ndarray:
    """Mixture weight of each fragment for an observed label (sums to 1)."""
    if not scheme.label_min <= y <= scheme.label_max:
        raise ValueError("label outside the fragmented range")
    return prior_rows(np.asarray([y]), scheme.means, scheme.label_range)[0]


def self_agreement_pred(x: np.ndarray, f: int, ens: ExpertEnsemble) -> int:
    """1 iff the pair expert classifies x into fragment f rather than its partner."""
    pair = ens.pairing.pair_of(f)
    return int(classify_pair(ens, pair, x) == f)


def self_agreement_repr(
    x: np.ndarray, f: int, ens: ExpertEnsemble, bank: FeatureBank, K: int
) -> int:
    """1 iff the K-NN vote in the pair expert's feature space lands on f."""
    pair = ens.pairing.pair_of(f)
    feature = pair_features(ens, pair, np.asarray(x, dtype=np.float64)[None, :])[0]
    return int(knn_classify(bank, pair, feature, K) == f)


def self_agreement_regr(
    x: np.ndarray, f: int, ens: ExpertEnsemble, scheme: FragmentationScheme
) -> int:
    """1 iff the pair's regression output is strictly nearer f's mean label.

    The strict inequality makes an exact midpoint count as disagreement for
    both fragments of the pair.
    """
    pair = ens.pairing.pair_of(f)
    partner = ens.pairing.partner(f)
    h = float(predict_label(ens, pair, np.asarray(x, dtype=np.float64)[None, :])[0])
    own = abs(scheme.means[f - 1] - h)
    other = abs(scheme.means[partner - 1] - h)
    return int(own < other)


def neighborhood_agreement(f: int, self_agreements: np.ndarray) -> int:
    """Self-agreement of f gated by at least one adjacent fragment agreeing.

    At the range boundaries only the existing neighbor is consulted.
    """
    self_agreements = np.asarray(self_agreements)
    F = len(self_agreements)
    if not 1 <= f <= F:
        raise ValueError(f"fragment id {f} outside 1..{F}")
    neighbors = [g for g in (f - 1, f + 1) if 1 <= g <= F]
    ngb = int(any(self_agreements[g - 1] for g in neighbors))
    return int(self_agreements[f - 1]) * ngb


def neighborhood_gate(self_matrix: np.ndarray) -> np.ndarray:
    """Row-wise neighborhood agreement for an (n, F) self-agreement matrix."""
    self_matrix = np.asarray(self_matrix, dtype=bool)
    F = self_matrix.shape[1]
    ngb = np.zeros_like(self_matrix)
    for col in range(F):
        adjacent = [c for c in (col - 1, col + 1) if 0 <= c < F]
        ngb[:, col] = np.any(self_matrix[:, adjacent], axis=1)
    return (self_matrix & ngb).astype(np.float64)


def self_agreement_matrix(
    ens: ExpertEnsemble,
    scheme: FragmentationScheme,
    banks: FeatureBank,
    K: int,
    kind: str,
) -> np.ndarray:
    """(n, F) self-agreement votes for every training row and fragment at once.

    Every vote reads the epoch's one expert pass held in ``banks``.  ``kind``
    selects the vote source: "pred" the expert's hard classification, "repr"
    the K-NN vote in its feature space, "regr" the regression output's
    nearest pair mean.
    """
    n = len(banks.outputs[ens.pairing.pairs[0]])
    votes = np.zeros((n, ens.pairing.num_fragments))
    for pair in ens.pairing.pairs:
        i, j = pair
        out = banks.outputs[pair]
        if kind == "pred":
            own_i = out > 0.0
            own_j = ~own_i
        elif kind == "repr":
            winner = knn_votes(banks, pair, banks.row_features[pair], K)
            own_i = winner == i
            own_j = winner == j
        elif kind == "regr":
            if ens.objective != "regress":
                raise ExpertError("regression agreement requires a regression ensemble")
            # The expression of ``predict_label``.
            h = ens.label_lo + out * ens.label_range
            di = np.abs(scheme.means[i - 1] - h)
            dj = np.abs(scheme.means[j - 1] - h)
            own_i = di < dj
            own_j = dj < di
        else:
            raise ValueError(f"unknown agreement kind {kind!r}")
        votes[:, i - 1] = own_i
        votes[:, j - 1] = own_j
    return votes


def selection_probability(
    x: np.ndarray,
    y: float,
    ens: ExpertEnsemble,
    variant: str,
    scheme: FragmentationScheme,
    banks: Optional[FeatureBank] = None,
    K: int = 5,
) -> float:
    """Mixture probability that (x, y) is clean under one agreement variant.

    The scalar rules composed one sample at a time: the reference that the
    vectorized :func:`select_clean` is tested against.
    """
    fragments = range(1, ens.pairing.num_fragments + 1)
    if variant == "pred":
        votes = [self_agreement_pred(x, f, ens) for f in fragments]
    elif variant == "repr":
        if banks is None:
            raise ValueError("representational agreement requires feature banks")
        votes = [self_agreement_repr(x, f, ens, banks, K) for f in fragments]
    elif variant == "regr":
        votes = [self_agreement_regr(x, f, ens, scheme) for f in fragments]
    else:
        raise ValueError("variant must be 'pred', 'repr' or 'regr'")
    alpha = np.array([neighborhood_agreement(f, votes) for f in fragments], dtype=np.float64)
    return float(fragment_prior(float(y), scheme) @ alpha)


@dataclass
class SelectionOutcome:
    """Per-sample probabilities and Bernoulli picks for both agreement variants."""

    p_pred: np.ndarray
    p_repr: np.ndarray
    chosen_pred: np.ndarray
    chosen_repr: np.ndarray

    @property
    def selected_pred(self) -> np.ndarray:
        return np.flatnonzero(self.chosen_pred)

    @property
    def selected_repr(self) -> np.ndarray:
        return np.flatnonzero(self.chosen_repr)

    @property
    def selected_union(self) -> np.ndarray:
        return np.flatnonzero(self.chosen_pred | self.chosen_repr)

    @property
    def selected_intersection(self) -> np.ndarray:
        return np.flatnonzero(self.chosen_pred & self.chosen_repr)

    def combine(self, how: str) -> np.ndarray:
        if how == "union":
            return self.selected_union
        if how == "intersection":
            return self.selected_intersection
        if how == "pred_only":
            return self.selected_pred
        if how == "repr_only":
            return self.selected_repr
        raise ValueError(f"unknown selection combination {how!r}")

    # One selection-file row in the key order of ``records``; the last field
    # is the sample's label tail from ``jsonl_tails``.  Not a dataclass field.
    _JSONL_ROW = (
        '{"index": %d, "p_pred": %r, "p_repr": %r, "chosen_pred": %s, "chosen_repr": %s%s'
    )

    def jsonl(self, tails: list[str]) -> str:
        """One epoch's selection file: the JSON lines of ``records``, byte for byte.

        ``tails`` holds each sample's fixed row ending from ``jsonl_tails``.
        ``json.dumps`` writes a finite float as ``float.__repr__`` does, and
        every probability here is a finite sum of softmax weights, so ``%r``
        gives its bytes.
        """
        flags = ("false", "true")
        return "".join(
            map(
                self._JSONL_ROW.__mod__,
                zip(
                    range(len(self.p_pred)),
                    self.p_pred.tolist(),
                    self.p_repr.tolist(),
                    [flags[c] for c in self.chosen_pred.tolist()],
                    [flags[c] for c in self.chosen_repr.tolist()],
                    tails,
                ),
            )
        )

    @staticmethod
    def jsonl_tails(ds: Dataset) -> list[str]:
        """Per-sample endings of the ``jsonl`` rows: the labels, fixed for a run.

        ``Dataset`` rejects non-finite labels, so ``%r`` matches ``json.dumps``.
        """
        if ds.y_gt is None:
            return [', "y": %r}\n' % y for y in ds.y.tolist()]
        return [
            ', "y": %r, "y_gt": %r}\n' % pair
            for pair in zip(ds.y.tolist(), ds.y_gt.tolist())
        ]

    def records(self, ds: Dataset) -> list[dict]:
        """Per-row view of one epoch's selection; ``jsonl`` writes the same rows."""
        rows = []
        for idx in range(len(self.p_pred)):
            row: dict = {
                "index": idx,
                "p_pred": float(self.p_pred[idx]),
                "p_repr": float(self.p_repr[idx]),
                "chosen_pred": bool(self.chosen_pred[idx]),
                "chosen_repr": bool(self.chosen_repr[idx]),
                "y": float(ds.y[idx]),
            }
            if ds.y_gt is not None:
                row["y_gt"] = float(ds.y_gt[idx])
            rows.append(row)
        return rows


def selection_probabilities(
    ds: Dataset,
    ens: ExpertEnsemble,
    scheme: FragmentationScheme,
    banks: FeatureBank,
    K: int,
    predictive: str = "classifier",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-sample clean probabilities (predictive, representational)."""
    if predictive not in PREDICTIVE_KINDS:
        raise ValueError(f"predictive must be one of {PREDICTIVE_KINDS}")
    pred_kind = "pred" if predictive == "classifier" else "regr"
    rho = prior_rows(ds.y, scheme.means, scheme.label_range)
    alpha_pred = neighborhood_gate(self_agreement_matrix(ens, scheme, banks, K, pred_kind))
    alpha_repr = neighborhood_gate(self_agreement_matrix(ens, scheme, banks, K, "repr"))
    return (rho * alpha_pred).sum(axis=1), (rho * alpha_repr).sum(axis=1)


def bernoulli_select(
    p_pred: np.ndarray, p_repr: np.ndarray, seed: int, epoch: int
) -> SelectionOutcome:
    """Independent uniform draws per sample; a sample is picked when p > u.

    Draws come from a counter-based stream keyed on (seed, epoch) and indexed
    by sample position, so results do not depend on evaluation order.
    """
    n = len(p_pred)
    u = stream(seed, "select", epoch).random((n, 2))
    return SelectionOutcome(
        p_pred=np.asarray(p_pred, dtype=np.float64),
        p_repr=np.asarray(p_repr, dtype=np.float64),
        chosen_pred=p_pred > u[:, 0],
        chosen_repr=p_repr > u[:, 1],
    )


def select_clean(
    ds: Dataset,
    ens: ExpertEnsemble,
    scheme: FragmentationScheme,
    banks: FeatureBank,
    K: int,
    seed: int,
    epoch: int,
    predictive: str = "classifier",
) -> SelectionOutcome:
    """Compute both clean probabilities and sample the per-epoch clean sets."""
    p_pred, p_repr = selection_probabilities(ds, ens, scheme, banks, K, predictive)
    return bernoulli_select(p_pred, p_repr, seed, epoch)

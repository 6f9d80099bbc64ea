"""Fragment priors, agreement gating and Bernoulli sampling of the clean set over two vote dicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .experts import Pair
# Not called here; benchmark/tracing.py patches these names in this module.
from .experts import knn_votes, pair_features, pair_logits, predict_label  # noqa: F401
from .fragments import FragmentationScheme
from .rng import stream

# Inverse-distance gate value at which the softmax is already effectively
# one-hot; capping here replaces the inf that a zero or subnormal distance
# to a fragment mean gives, without changing the argmax.
GATE_CAP = 1e6


def prior_rows(ys: np.ndarray, means: np.ndarray, label_range: float) -> np.ndarray:
    """Softmax fragment weights from inverse label distance, one row per label."""
    ys = np.asarray(ys, dtype=np.float64)
    dist = np.abs(ys[:, None] - np.asarray(means)[None, :])
    with np.errstate(divide="ignore", over="ignore"):
        gate = np.minimum(label_range / dist, GATE_CAP)
    gate -= gate.max(axis=1, keepdims=True)
    weights = np.exp(gate)
    return weights / weights.sum(axis=1, keepdims=True)


def neighborhood_gate(self_matrix: np.ndarray) -> np.ndarray:
    """Each fragment's self-agreement gated by at least one adjacent fragment
    agreeing, row by row of an (n, F) self-agreement matrix.  At the range
    boundaries only the existing neighbor is consulted."""
    s = np.asarray(self_matrix, dtype=bool)
    ngb = np.zeros_like(s)
    ngb[:, 1:] |= s[:, :-1]
    ngb[:, :-1] |= s[:, 1:]
    return (s & ngb).astype(np.float64)


def self_agreement_matrix(winners: dict[Pair, np.ndarray], F: int) -> np.ndarray:
    """(n, F) self-agreement votes for every training row and fragment at once.

    ``winners`` holds each pair's vote per row, from its expert's output
    (``experts.pred_winners``) or K-NN in its features (``experts.knn_votes``):
    a row agrees with a fragment when its pair's vote names it.
    """
    n = len(next(iter(winners.values())))
    votes = np.zeros((n, F))
    for (i, j), winner in winners.items():
        votes[:, i - 1] = winner == i
        votes[:, j - 1] = winner == j
    return votes


# Each selection combination: its name and the picks it keeps, from the
# (chosen_pred, chosen_repr) masks.
COMBINES = {
    "union": lambda pred, repr_: pred | repr_,
    "intersection": lambda pred, repr_: pred & repr_,
    "pred_only": lambda pred, repr_: pred,
    "repr_only": lambda pred, repr_: repr_,
}


@dataclass
class SelectionOutcome:
    """Per-sample probabilities and Bernoulli picks for both agreement variants."""

    p_pred: np.ndarray
    p_repr: np.ndarray
    chosen_pred: np.ndarray
    chosen_repr: np.ndarray

    @property
    def selected_union(self) -> np.ndarray:
        return self.combine("union")

    def combine(self, how: str) -> np.ndarray:
        """Indices of the samples that the combination named ``how`` keeps."""
        if how not in COMBINES:
            raise ValueError(f"unknown selection combination {how!r}")
        return np.flatnonzero(COMBINES[how](self.chosen_pred, self.chosen_repr))

    # Not called in src/; the tests' oracle, and benchmark/tracing.py patches it.
    def records(self, ds: Dataset) -> list[dict]:
        """Per-row view of one epoch's selection; :class:`SelectionText` writes the same rows."""
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


class SelectionText:
    """A run's selection files, each the JSON lines of ``SelectionOutcome.records``
    over the training set ``ds``, byte for byte.  One list holds six parts per
    row: index head, ``p_pred``, ``p_repr`` key, ``p_repr``, picks and label
    tail.  Heads, keys and tails are made once; each epoch formats only the
    probabilities whose bits changed since the last, with ``float.__repr__``,
    as ``json.dumps`` writes a finite float.
    """

    _FLAGS = np.array([f', "chosen_pred": {p}, "chosen_repr": {r}'
                       for p in ("false", "true") for r in ("false", "true")], dtype=object)

    def __init__(self, ds: Dataset) -> None:
        n = ds.n
        self.parts = ["0.0"] * (6 * n)  # p_pred and p_repr: the texts of self.bits
        self.parts[0::6] = [f'{{"index": {i}, "p_pred": ' for i in range(n)]
        self.parts[2::6] = [', "p_repr": '] * n
        if ds.y_gt is None:
            self.parts[5::6] = [f', "y": {y!r}}}\n' for y in ds.y.tolist()]
        else:
            self.parts[5::6] = [f', "y": {y!r}, "y_gt": {g!r}}}\n'
                                for y, g in zip(ds.y.tolist(), ds.y_gt.tolist())]
        # The previous epoch's p_pred and p_repr as int64 bits: unlike float
        # equality, these tell 0.0 from -0.0, whose texts differ.
        self.bits = np.zeros((2, n), dtype=np.int64)

    def text(self, outcome: SelectionOutcome) -> str:
        """``outcome``'s selection file, formatting only what the previous call's did not hold."""
        parts = self.parts
        for slot, (p, last) in enumerate(zip((outcome.p_pred, outcome.p_repr), self.bits)):
            bits = p.view(np.int64)
            changed = np.flatnonzero(bits != last)
            for at, value in zip((6 * changed + 1 + 2 * slot).tolist(), p[changed].tolist()):
                parts[at] = float.__repr__(value)
            last[:] = bits
        parts[4::6] = self._FLAGS[2 * outcome.chosen_pred + outcome.chosen_repr].tolist()
        return "".join(parts)


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
    scheme: FragmentationScheme,
    pred_winners: dict[Pair, np.ndarray],
    repr_winners: dict[Pair, np.ndarray],
    seed: int,
    epoch: int,
) -> SelectionOutcome:
    """Both per-sample clean probabilities, then the epoch's Bernoulli picks.

    ``pred_winners`` and ``repr_winners`` are the epoch's two votes per pair
    and training row: its expert's output (``experts.pred_winners``) and
    K-NN in its features (``experts.knn_votes``).
    """
    rho = prior_rows(ds.y, scheme.means, scheme.label_range)
    alpha_pred = neighborhood_gate(self_agreement_matrix(pred_winners, scheme.num_fragments))
    alpha_repr = neighborhood_gate(self_agreement_matrix(repr_winners, scheme.num_fragments))
    p_pred, p_repr = (rho * alpha_pred).sum(axis=1), (rho * alpha_repr).sum(axis=1)
    return bernoulli_select(p_pred, p_repr, seed, epoch)

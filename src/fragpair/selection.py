"""Fragment priors, agreement votes and Bernoulli sampling of the clean set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .experts import Pair, Passes
# Not called here; benchmark/tracing.py patches these names in this module.
from .experts import knn_votes, pair_features, pair_logits, predict_label  # noqa: F401
from .fragments import FragmentationScheme, Pairing
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


def pred_winners(
    scheme: FragmentationScheme, passes: Passes, regress: bool
) -> dict[Pair, np.ndarray]:
    """Each pair's predictive vote per training row, from the outputs of the
    epoch's expert pass, ``passes``.

    The vote is the fragment the expert's output names: a classifier's hard
    classification, or, where ``regress``, the pair mean nearer the output
    rescaled to label units over the scheme's range (the expression of
    ``predict_label``), and 0, neither fragment, where both means are
    equally near.
    """
    winners = {}
    for pair, (out, _) in passes.items():
        i, j = pair
        if not regress:
            winners[pair] = np.where(out > 0.0, i, j)
        else:
            h = scheme.label_min + out * scheme.label_range
            di = np.abs(scheme.means[i - 1] - h)
            dj = np.abs(scheme.means[j - 1] - h)
            winners[pair] = np.where(di < dj, i, np.where(dj < di, j, 0))
    return winners


def self_agreement_matrix(pairing: Pairing, winners: dict[Pair, np.ndarray]) -> np.ndarray:
    """(n, F) self-agreement votes for every training row and fragment at once.

    ``winners`` holds each pair's vote per row, from :func:`pred_winners` or
    the K-NN vote in the expert's feature space (``experts.knn_votes``):
    a row agrees with a fragment when its pair's vote names it.
    """
    n = len(winners[pairing.pairs[0]])
    votes = np.zeros((n, pairing.num_fragments))
    for i, j in pairing.pairs:
        winner = winners[(i, j)]
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

    # Not called in src/; the tests' oracle, and benchmark/tracing.py patches it.
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
    pairing: Pairing,
    scheme: FragmentationScheme,
    passes: Passes,
    repr_winners: dict[Pair, np.ndarray],
    regress: bool,
    seed: int,
    epoch: int,
) -> SelectionOutcome:
    """Both per-sample clean probabilities, then the epoch's Bernoulli picks.

    The predictive vote is the one that classifier experts, or regression
    experts where ``regress``, give from the outputs of ``passes``, the
    epoch's expert pass (see :func:`pred_winners`); ``repr_winners`` is the
    epoch's K-NN vote per pair (``experts.knn_votes``).
    """
    rho = prior_rows(ds.y, scheme.means, scheme.label_range)
    pred = pred_winners(scheme, passes, regress)
    alpha_pred = neighborhood_gate(self_agreement_matrix(pairing, pred))
    alpha_repr = neighborhood_gate(self_agreement_matrix(pairing, repr_winners))
    p_pred, p_repr = (rho * alpha_pred).sum(axis=1), (rho * alpha_repr).sum(axis=1)
    return bernoulli_select(p_pred, p_repr, seed, epoch)

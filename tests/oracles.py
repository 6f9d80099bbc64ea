"""Scalar reference paths, one sample at a time, for testing the vectorized library.

Each function here spells out one rule of fragpair directly: the vectorized
code in ``src/fragpair`` is tested against it.  Methods of library classes
appear as functions taking the object first.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from fragpair.data import Dataset
from fragpair.experts import (
    Experts,
    Pair,
    PairSets,
    Passes,
    knn_votes,
    pair_features,
    pair_logits,
    predict_label,
)
from fragpair.fragments import FragmentationError, FragmentationScheme, JitteredScheme, Pairing
from fragpair.net import (
    Net,
    NetError,
    _check_batch,
    _forward_cached,
    _layer_views,
    _loss_and_output_grad,
    _step,
    forward_batch,
)
from fragpair.selection import prior_rows


# --- fragments --------------------------------------------------------------


def assign(scheme: FragmentationScheme, y: float) -> int:
    return int(scheme.assign_many(np.asarray([y]))[0])


def partner(pairing: Pairing, f: int) -> int:
    for i, j in pairing.pairs:
        if f == i:
            return j
        if f == j:
            return i
    raise FragmentationError(f"fragment {f} not covered by the pairing")


def pair_of(pairing: Pairing, f: int) -> tuple[int, int]:
    for pair in pairing.pairs:
        if f in pair:
            return pair
    raise FragmentationError(f"fragment {f} not covered by the pairing")


def membership_many(js: JitteredScheme, y: np.ndarray) -> list[tuple[int, ...]]:
    base_ids = js.base.assign_many(y)
    return [_expand_membership(float(v), int(f), js) for v, f in zip(y, base_ids)]


def _expand_membership(y: float, base_id: int, js: JitteredScheme) -> tuple[int, ...]:
    F = js.base.num_fragments
    b = js.base.boundaries
    in_left = base_id > 1 and y < b[base_id - 1] + js.delta
    in_right = base_id < F and y >= b[base_id] - js.delta
    if in_left and in_right:
        # Extreme jitter draws can reach both neighbors; keep only the
        # neighbor whose shared boundary is nearer so membership stays <= 2.
        if y - b[base_id - 1] <= b[base_id] - y:
            in_right = False
        else:
            in_left = False
    members = []
    if in_left:
        members.append(base_id - 1)
    members.append(base_id)
    if in_right:
        members.append(base_id + 1)
    return tuple(members)


def jittered_membership(y: float, js: JitteredScheme) -> tuple[int, ...]:
    """The 1 or 2 fragments whose jittered coverage contains ``y``."""
    base_id = assign(js.base, y)
    return _expand_membership(float(y), base_id, js)


def brute_force_edge_weights(ds: Dataset, scheme: FragmentationScheme) -> np.ndarray:
    """O(n^2) oracle: scan every cross-fragment sample pair."""
    F = scheme.num_fragments
    assignment = scheme.assign_many(ds.y)
    weights = np.zeros((F, F))
    for i in range(1, F + 1):
        for j in range(i + 1, F + 1):
            yi = ds.y[assignment == i]
            yj = ds.y[assignment == j]
            if len(yi) and len(yj):
                weights[i - 1, j - 1] = np.abs(yi[:, None] - yj[None, :]).min()
            else:
                gap = scheme.boundaries[j - 1] - scheme.boundaries[i]
                weights[i - 1, j - 1] = max(0.0, gap)
            weights[j - 1, i - 1] = weights[i - 1, j - 1]
    return weights


# --- net --------------------------------------------------------------------


def forward(net: Net, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-sample forward pass: (scalar output, feature vector)."""
    out, feats = forward_batch(net, np.asarray(x, dtype=np.float64)[None, :])
    return out[0], feats[0]


def loss_value(net: Net, X: np.ndarray, T: np.ndarray, loss: str) -> float:
    X, T = _check_batch(net, X, T, loss)
    out, _ = _forward_cached(net, X)
    value, _ = _loss_and_output_grad(out, T, loss)
    return value


def gradient_check(
    net: Net, X: np.ndarray, T: np.ndarray, loss: str, eps: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Parameters whose perturbation flips the sign of any relu pre-activation
    are excluded: the loss is not differentiable across the kink, so a finite
    difference there does not estimate the one-sided analytic gradient.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise NetError("eps must lie in [1e-7, 1e-3]")
    X, T = _check_batch(net, X, T, loss)
    grad = np.empty_like(net.flat)
    _step(net, X, T, loss, 0.0, grad, *_layer_views(grad, net.spec))
    flat = net.flat
    worst = 0.0
    for p in range(flat.size):
        original = flat[p]
        flat[p] = original + eps
        out_plus, acts_plus = _forward_cached(net, X)
        up, _ = _loss_and_output_grad(out_plus, T, loss)
        flat[p] = original - eps
        out_minus, acts_minus = _forward_cached(net, X)
        down, _ = _loss_and_output_grad(out_minus, T, loss)
        flat[p] = original
        if net.spec.activation == "relu" and any(
            np.any((ap > 0) != (am > 0)) for ap, am in zip(acts_plus[1:], acts_minus[1:])
        ):
            continue
        numeric = (up - down) / (2.0 * eps)
        scale = max(abs(grad[p]), abs(numeric))
        err = abs(grad[p] - numeric) if scale < 1e-8 else abs(grad[p] - numeric) / scale
        worst = max(worst, err)
    return worst


# --- experts ----------------------------------------------------------------


def classify_pair(experts: Experts, pair: Pair, x: np.ndarray) -> int:
    """Hard classification into one of the pair's fragments.

    Positive logit means the lower-indexed fragment; an exact zero logit is
    resolved to the higher-indexed fragment.
    """
    logit = float(pair_logits(experts, pair, np.asarray(x, dtype=np.float64)[None, :])[0])
    i, j = pair
    return i if logit > 0.0 else j


# A feature bank per pair: (features, fragment tags), one row per entry.
Banks = dict[Pair, tuple[np.ndarray, np.ndarray]]


def feature_banks(passes: Passes, sets: PairSets) -> Banks:
    """Each pair's feature bank as a run forms it: the epoch's expert pass
    at the rows of the pair's set, with the set's tags."""
    return {pair: (passes[pair][1][rows], tags) for pair, (rows, tags) in sets.items()}


def knn_classify(
    feats: np.ndarray, tags: np.ndarray, feature: np.ndarray, K: int, pair: Pair
) -> int:
    """Single-query K-NN vote in one expert's feature space."""
    feature = np.asarray(feature, dtype=np.float64)
    return int(knn_votes(feats, tags, feature[None, :], K, pair)[0])


# --- selection --------------------------------------------------------------


def fragment_prior(y: float, scheme: FragmentationScheme) -> np.ndarray:
    """Mixture weight of each fragment for an observed label (sums to 1)."""
    if not scheme.label_min <= y <= scheme.label_max:
        raise ValueError("label outside the fragmented range")
    return prior_rows(np.asarray([y]), scheme.means, scheme.label_range)[0]


def self_agreement_pred(x: np.ndarray, f: int, experts: Experts, pairing: Pairing) -> int:
    """1 iff the pair expert classifies x into fragment f rather than its partner."""
    pair = pair_of(pairing, f)
    return int(classify_pair(experts, pair, x) == f)


def self_agreement_repr(
    x: np.ndarray, f: int, experts: Experts, pairing: Pairing, banks: Banks, K: int
) -> int:
    """1 iff the K-NN vote in the pair expert's feature space lands on f."""
    pair = pair_of(pairing, f)
    feature = pair_features(experts, pair, np.asarray(x, dtype=np.float64)[None, :])[0]
    return int(knn_classify(*banks[pair], feature, K, pair) == f)


def self_agreement_regr(
    x: np.ndarray, f: int, experts: Experts, pairing: Pairing, scheme: FragmentationScheme
) -> int:
    """1 iff the pair's regression output, in label units over the scheme's
    range, is strictly nearer f's mean label.

    The strict inequality makes an exact midpoint count as disagreement for
    both fragments of the pair.
    """
    pair = pair_of(pairing, f)
    mate = partner(pairing, f)
    X = np.asarray(x, dtype=np.float64)[None, :]
    h = float(predict_label(experts, pair, X, scheme.label_min, scheme.label_range)[0])
    own = abs(scheme.means[f - 1] - h)
    other = abs(scheme.means[mate - 1] - h)
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


def selection_probability(
    x: np.ndarray,
    y: float,
    experts: Experts,
    pairing: Pairing,
    variant: str,
    scheme: FragmentationScheme,
    banks: Optional[Banks] = None,
    K: int = 5,
) -> float:
    """Mixture probability that (x, y) is clean under one agreement variant.

    The scalar rules composed one sample at a time: the reference that the
    vectorized ``select_clean`` is tested against.  "pred" and "regr" are
    the predictive votes of classifier and of regression experts.
    """
    fragments = range(1, pairing.num_fragments + 1)
    if variant == "pred":
        votes = [self_agreement_pred(x, f, experts, pairing) for f in fragments]
    elif variant == "repr":
        if banks is None:
            raise ValueError("representational agreement requires feature banks")
        votes = [self_agreement_repr(x, f, experts, pairing, banks, K) for f in fragments]
    elif variant == "regr":
        votes = [self_agreement_regr(x, f, experts, pairing, scheme) for f in fragments]
    else:
        raise ValueError("variant must be 'pred', 'repr' or 'regr'")
    alpha = np.array([neighborhood_agreement(f, votes) for f in fragments], dtype=np.float64)
    return float(fragment_prior(float(y), scheme) @ alpha)

"""Per-pair expert feature extractors, feature banks and K-NN voting."""

from __future__ import annotations

import threading
import warnings
from typing import Iterator

import numpy as np

from .data import Dataset
from .fragments import JitteredScheme, Pairing
from .net import Net, NetSpec, forward_batch, init_net, train_epoch
# Not called here; benchmark/tracing.py patches experts.train_step.
from .net import train_step  # noqa: F401
from .rng import derive_seed, stream

Pair = tuple[int, int]
# A run's experts: one net per pair of its pairing, in pairing order.
Experts = dict[Pair, Net]
# Each pair's (sample rows, fragment tags) under one epoch's jittered coverage.
PairSets = dict[Pair, tuple[np.ndarray, np.ndarray]]
# One epoch's expert pass: each pair expert's (outputs, features) per training row.
Passes = dict[Pair, tuple[np.ndarray, np.ndarray]]


class ExpertError(ValueError):
    """Raised for expert misuse: unknown pairs, empty training classes, bad K."""


def init_ensemble(
    pairing: Pairing,
    input_dim: int,
    hidden_dims: tuple[int, ...],
    activation: str,
    seed: int,
) -> Experts:
    """One deterministic network per pair, each with its own derived seed; its one
    output is a logit or a normalized label, as :func:`train_experts_epoch` trains it."""
    experts = {}
    for pair in pairing.pairs:
        spec = NetSpec(
            input_dim=input_dim,
            hidden_dims=hidden_dims,
            activation=activation,
            seed=derive_seed(seed, "expert", pair),
        )
        experts[pair] = init_net(spec)
    return experts


def pair_sets(pairing: Pairing, js: JitteredScheme, y: np.ndarray) -> PairSets:
    """Each pair's training rows and fragment tags under this epoch's jittered coverage.

    The membership is computed once and shared by every pair.  A sample lying
    in the overlap of both pair members appears once per containing fragment,
    tagged with that fragment's id.  Every expert needs both its fragments, so
    a pair with an empty fragment raises :class:`ExpertError` naming it.
    """
    rows, frags = js.membership_rows(y)
    sets: PairSets = {}
    for i, j in pairing.pairs:
        keep = (frags == i) | (frags == j)
        tags = frags[keep]
        if not np.any(tags == i) or not np.any(tags == j):
            raise ExpertError(
                f"expert ({i}, {j}) has an empty training set for one fragment"
            )
        sets[(i, j)] = rows[keep], tags
    return sets


def train_experts_epoch(
    experts: Experts,
    ds: Dataset,
    sets: PairSets,
    labels: np.ndarray | None,
    lr: float,
    batch_size: int,
    seed: int,
) -> dict[Pair, float]:
    """One epoch of mini-batch steps per expert; returns mean pre-step losses.

    With ``labels`` None each expert is a classifier, trained with binary
    cross-entropy on logits (target 1 for the lower-indexed fragment);
    otherwise it regresses ``labels`` at its rows with mean squared error.
    ``sets`` is the epoch's :func:`pair_sets`.  Shuffling is deterministic
    per (seed, pair).
    """
    losses: dict[Pair, float] = {}
    for pair, net in experts.items():
        rows, tags = sets[pair]
        if labels is None:
            targets, loss_name = (tags == pair[0]).astype(np.float64), "bce_logits"
        else:
            targets, loss_name = labels[rows], "mse"
        order = stream(seed, "shuffle", pair).permutation(len(rows))
        # Sample-weighted mean: invariant to the shuffle when lr is zero.
        losses[pair] = train_epoch(net, ds.x[rows], targets, order, loss_name, lr, batch_size)
    return losses


def _forward(experts: Experts, pair: Pair, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if pair not in experts:
        raise ExpertError(f"no expert for pair {pair}")
    return forward_batch(experts[pair], X)


# pair_logits, pair_features and predict_label: src/ calls none of them; the
# tests' oracles do, and benchmark/tracing.py patches them by name.
def pair_logits(experts: Experts, pair: Pair, X: np.ndarray) -> np.ndarray:
    return _forward(experts, pair, X)[0]


def pair_features(experts: Experts, pair: Pair, X: np.ndarray) -> np.ndarray:
    return _forward(experts, pair, X)[1]


def predict_label(experts: Experts, pair: Pair, X: np.ndarray, lo: float, span: float) -> np.ndarray:
    """A regression expert's output rescaled to label units, ``lo + out * span``."""
    return lo + pair_logits(experts, pair, X) * span


def build_feature_bank(experts: Experts, ds: Dataset) -> Passes:
    """The epoch's expert pass: each pair's current expert run once over
    every training row, its (outputs, features) per pair.

    A pair's feature bank is the pass's features at its rows in the epoch's
    :func:`pair_sets`, so a sample's bank entry and its K-NN query are the
    same bits.  Rerun after each training epoch: the feature space drifts as
    the experts train, so stale banks would vote in the wrong geometry.
    """
    return {pair: forward_batch(net, ds.x) for pair, net in experts.items()}


class KShrinkWarning(UserWarning):
    """K exceeded a feature bank and was shrunk to the largest odd K that fits."""


# Floats per distance buffer (256 KB), at least one bank row.  Each thread keeps
# its two, grown but never shrunk, so that no call faults fresh pages in.
_BUFFER_FLOATS = 1 << 15
_workspace = threading.local()

# A squared distance's int64 bits, sign cleared, order as the distances do;
# each NaN is clipped to one key above +inf's, so NaNs tie and sort last.
_NAN_KEY = np.float64(np.inf).view(np.int64) + 1

# Sorted queries per block of the projection sweep.  Smaller blocks span
# narrower windows but pay numpy's per-call cost more often.
_SWEEP_ROWS = 128

# The first block takes the whole bank, so it is kept short.
_FIRST_ROWS = 32

# A block's windows reach this far past its queries' projections, in units of
# the previous block's 90th-percentile smaller m-th distance.  A tighter window
# sends more rows to the dense fallback; a wider one computes more distances.
_WINDOW_REACH = 1.2


def _distances(
    queries: np.ndarray, q_norms: np.ndarray, feats: np.ndarray, f_norms: np.ndarray,
    buffers: tuple[np.ndarray, np.ndarray],
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first row, squared distances) for each block of query rows against
    the rows of ``feats``, walked through the flat float ``buffers``: fresh
    arrays per block would be handed back to the OS and faulted in again."""
    n, cols = len(queries), len(feats)
    d2_buf, part_buf = buffers
    block = max(1, len(d2_buf) // cols)
    for start in range(0, n, block):
        stop = min(start + block, n)
        size = (stop - start) * cols
        d2 = d2_buf[:size].reshape(stop - start, cols)
        part = part_buf[:size].reshape(stop - start, cols)
        # (|q|^2 + |f|^2) - 2 q.f in that order for every window; q.f may still
        # round differently in another product shape (see _sweep_mth).
        np.copyto(d2, f_norms)
        np.add(d2, q_norms[start:stop, None], out=d2)
        np.matmul(queries[start:stop], feats.T, out=part)
        part *= 2.0
        d2 -= part
        yield start, np.maximum(d2, 0.0, out=d2)


def _mth_nearest(
    queries: np.ndarray, q_norms: np.ndarray, feats: np.ndarray, f_norms: np.ndarray,
    m: int, buffers: tuple[np.ndarray, np.ndarray], out: np.ndarray,
) -> None:
    """Fill ``out`` with each query row's m-th smallest squared distance to the
    rows of ``feats``, or inf where ``feats`` has fewer than m rows."""
    if len(feats) < m:
        out[:] = np.inf
        return
    for start, d2 in _distances(queries, q_norms, feats, f_norms, buffers):
        d2.partition(m - 1, axis=1)
        out[start : start + len(d2)] = d2[:, m - 1]


def _sweep_mth(
    queries: np.ndarray, q_norms: np.ndarray, feats: np.ndarray, f_norms: np.ndarray, is_lower: np.ndarray,
    m: int, dp: np.ndarray, dd: np.ndarray, buffers: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The index of :func:`knn_votes`, a projection sweep: each query row's
    m-th smallest squared distance to the bank rows where ``is_lower`` and to
    the others, ``mth`` (2, n), and the rows ``certified`` to meet the contract
    stated there, in query order; an uncertified row's ``mth`` is undefined.
    No row is certified when there is none, or the bank has a non-finite entry.

    **Projection sweep.**  Each fragment's rows, in a stable sort, and the
    queries are ordered by their projection on the bank's leading principal
    axis ``u`` and walked in blocks of sorted queries (32 rows, then 128).  In
    each fragment a block's window is the run of rows projected within ``w``
    of its own first and last projections (``w`` is 1.2 times the previous
    block's 90th-percentile smaller m-th distance), widened to m rows, or the
    whole fragment if smaller; the first block's window is every row.  The
    block sizes, the reach and the axis decide only how much is pruned.

    **Certification.**  A row stands when every row outside both windows is
    provably farther than its smaller m-th distance ``d``: with ``g`` the
    smaller of the projection gaps to the two fragments' nearest excluded
    rows, ``(g - dp)^2 > d + dd``.  Then ``d`` is its fragment's m-th distance,
    and the other fragment's is no smaller.  The margins bound rounding, with
    eps = 2^-53, h the feature dimension and ``r = |q| + max |f|`` over the
    bank rows of finite norm (a distance to any other row is inf or NaN, which
    sorts last):

    - a computed projection ``fl(u.x)`` is within ``h eps |u| |x|`` of
      ``u.x``, ``|u| = 1`` to within ``(h + 2) eps`` and ``g`` rounds once, so
      the true distance to an excluded row is at least ``g - (2h + 3) eps r``;
    - the computed squared distance is within ``(h + 2) eps r^2`` of the
      true one; the clip at zero only moves it toward the truth.

    :func:`knn_votes` passes ``dp = c r`` and ``dd = c r^2`` with ``c = 8 (h
    + 2) eps``, four or more times those bounds, which also covers rounding in
    ``r``, in the gap and in the test itself.  Each margin also carries ``(h +
    3)`` smallest subnormals for underflow.  Overflow gives an infinite or NaN
    distance or margin, which fails the test.
    """
    n = len(queries)
    if not n or not np.isfinite(feats).all():
        return np.empty((2, n)), np.zeros(n, dtype=bool)
    centred = feats - feats.mean(axis=0)
    vectors = np.linalg.eigh(centred.T @ centred)[1]
    axis = vectors[:, -1] / np.linalg.norm(vectors[:, -1])  # the leading principal axis
    f_proj = feats @ axis
    order = np.argsort(f_proj, kind="stable")
    sweeps = [(f_proj[rows], feats[rows], f_norms[rows])
              for rows in (order[is_lower[order]], order[~is_lower[order]])]
    # The query order only decides which block a row joins.
    q_proj = queries @ axis
    q_order = np.argsort(q_proj)
    q_proj, queries, q_norms, dp, dd = (a[q_order] for a in (q_proj, queries, q_norms, dp, dd))
    swept = np.empty((2, n))  # each fragment's m-th distances, in sweep order
    gap = np.full(n, np.inf)  # projection gap to the nearest row left out
    width = np.inf
    stops = list(range(min(_FIRST_ROWS, n), n, _SWEEP_ROWS)) + [n]
    for start, stop in zip([0] + stops[:-1], stops):
        here = slice(start, stop)
        for (proj, s_feats, s_norms), out in zip(sweeps, swept):
            lo = int(np.searchsorted(proj, q_proj[start] - width, "left"))
            hi = int(np.searchsorted(proj, q_proj[stop - 1] + width, "right"))
            need = min(m, len(proj))
            lo = max(0, min(lo, hi - need))
            hi = max(hi, lo + need)
            _mth_nearest(queries[here], q_norms[here], s_feats[lo:hi], s_norms[lo:hi],
                         m, buffers, out[here])
            below = proj[lo - 1] if lo else -np.inf
            above = proj[hi] if hi < len(proj) else np.inf
            with np.errstate(invalid="ignore"):  # inf - inf where a query is infinite
                edge = np.minimum(q_proj[here] - below, above - q_proj[here])
            np.minimum(gap[here], edge, out=gap[here])
        nearer = np.minimum(*swept[:, here])
        top = (9 * (stop - start)) // 10
        width = _WINDOW_REACH * float(np.sqrt(np.partition(nearer, top)[top]))
    gap -= dp  # certified where the gap, less its margin, clears the smaller m-th distance
    mth, certified = np.empty((2, n)), np.empty(n, dtype=bool)  # in query order
    mth[:, q_order], certified[q_order] = swept, (gap > 0.0) & (gap * gap > np.minimum(*swept) + dd)
    return mth, certified


def knn_votes(
    feats: np.ndarray, tags: np.ndarray, queries: np.ndarray, K: int, pair: Pair
) -> np.ndarray:
    """Majority fragment id among the K nearest bank entries, per query row.

    The bank is ``feats``, tagged row by row in ``tags`` with a fragment of
    ``pair``.  Squared Euclidean distances are ``max((|q|^2 + |f|^2) - 2 q.f,
    0)``, and the K nearest are the first K in (distance, bank index) order,
    as a stable sort ranks them.  K must be odd, so votes cannot tie; a K
    above the bank size is shrunk to the largest odd K the bank holds, with a
    :class:`KShrinkWarning`.

    **Two m-th distances.**  With m = (K + 1) / 2, one fragment holds at least
    m of the K nearest, so the lower fragment wins exactly when its m-th
    nearest row comes first.  Where the two fragments' m-th distances lie
    within the rounding margin ``dd`` (a tie, one distance rounded two ways in
    two products, or NaN), the row's first K are counted from its whole-bank
    distances, by a K-th-value selection: the rule itself.  Farther apart,
    their order is true.  An all-zero query has the same distances in any
    product shape, so the first such row's m-th distances and vote serve all.

    **The index's contract.**  The index, :func:`_sweep_mth` (which derives
    the margins ``dp`` and ``dd``), certifies rows: a certified row's smaller
    m-th distance is within ``dd`` of the dense kernel's, and its two order
    the fragments as the dense ones do wherever they differ by more than
    ``dd``.  Every other row takes one dense kernel call per fragment, over
    its rows in bank order, through the thread's two float buffers (256 KB).
    BLAS rounds ``q.f`` by the product's shape, so where two distances tie to
    within rounding, the shape decides the vote.
    """
    size = len(feats)
    if K < 1 or K % 2 == 0:
        raise ExpertError("K must be odd and >= 1")
    if size == 0:
        raise ExpertError(f"feature bank for pair {pair} is empty")
    k = min(K, size - 1 + size % 2)  # the largest odd K the bank holds
    if k < K:
        warnings.warn(f"K={K} exceeds bank size {size} for pair {pair}; using K={k}", KShrinkWarning)
    m = (k + 1) // 2
    queries = np.asarray(queries, dtype=np.float64)
    q_norms = (queries * queries).sum(axis=1)
    f_norms = (feats * feats).sum(axis=1)
    # Each row's rounding margins dp and dd (see _sweep_mth).
    h = feats.shape[1]
    c = 8 * (h + 2) * np.finfo(np.float64).eps / 2
    underflow = (h + 3) * np.finfo(np.float64).smallest_subnormal
    reach = np.sqrt(q_norms) + np.sqrt(np.max(f_norms, where=np.isfinite(f_norms), initial=0.0))
    dp, dd = c * reach + underflow, c * reach * reach + underflow
    is_lower = tags == pair[0]
    floats = max(_BUFFER_FLOATS, size)
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or len(buffers[0]) < floats:
        buffers = _workspace.buffers = (np.empty(floats), np.empty(floats))
    (lower, upper), certified = _sweep_mth(queries, q_norms, feats, f_norms, is_lower, m, dp, dd, buffers)
    zero = np.flatnonzero(q_norms == 0)  # a cheap filter; a tiny row's norm underflows too
    zero = zero[~queries[zero].any(axis=1)]  # all-zero rows: the first one speaks for all
    redo = np.setdiff1d(np.flatnonzero(~certified), zero[1:], assume_unique=True)
    for rows, out in zip((is_lower, ~is_lower), (lower, upper)):
        redone = np.empty(redo.size)
        _mth_nearest(queries[redo], q_norms[redo], feats[rows], f_norms[rows], m, buffers, redone)
        out[redo] = redone
    lower[zero], upper[zero] = lower[zero[:1]], upper[zero[:1]]
    # Two m-th distances within dd may be one distance rounded two ways.
    lower_wins = lower + dd < upper
    tied = np.setdiff1d(np.flatnonzero(~lower_wins & ~(upper + dd < lower)), zero[1:], assume_unique=True)
    lower_rows = is_lower.astype(np.float64)
    steps = lower_rows - np.append(lower_rows[1:], 0.0)
    for start, d2 in _distances(queries[tied], q_norms[tied], feats, f_norms, buffers):
        # A row's first k in a stable argsort, without the sort: every entry
        # below its k-th smallest key, then the ones equal to it in bank order.
        keys = np.abs(d2, out=d2).view(np.int64)
        np.minimum(keys, _NAN_KEY, out=keys)
        part = buffers[1][: d2.size].reshape(d2.shape)
        ranked = part.view(np.int64)
        np.copyto(ranked, keys)
        ranked.partition(k - 1, axis=1)
        kth = ranked[:, k - 1 : k].copy()
        need = k - (ranked[:, : k - 1] < kth).sum(axis=1, keepdims=True)
        # The running count of equal entries, capped at need, steps up by one at
        # each one taken, so its sum against steps counts the lower ones taken.
        np.equal(keys, kth, out=part)
        np.cumsum(part, axis=1, out=part)
        np.minimum(part, need, out=part)
        taken = part @ steps
        taken += np.less(keys, kth, out=part) @ lower_rows
        lower_wins[tied[start : start + len(d2)]] = 2 * taken > k
    lower_wins[zero] = lower_wins[zero[:1]]
    return np.where(lower_wins, *pair)

"""Per-pair expert feature extractors, feature banks and K-NN voting."""

from __future__ import annotations

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


# Floats per distance buffer (256 KB).  A call allocates its two buffers once
# and reuses them for every block.
_BUFFER_FLOATS = 1 << 15

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
        # round differently in another product shape (see knn_votes).
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


def _leading_axis(feats: np.ndarray) -> np.ndarray:
    """Unit vector along the bank's first principal axis."""
    centred = feats - feats.mean(axis=0)
    _, vectors = np.linalg.eigh(centred.T @ centred)
    return vectors[:, -1] / np.linalg.norm(vectors[:, -1])


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
    nearest row comes first.  A row needs only each fragment's m-th distance,
    computed over that fragment's rows.  Where the two lie within the margin
    ``dd`` below (a tie, one distance rounded two ways in two products, or
    NaN), the row's whole-bank distances are argsorted stably and its first K
    counted: the rule itself.  Farther apart, their order is the true one.

    **Projection sweep.**  Each fragment's rows, in a stable sort, and the
    queries are ordered by their projection on the bank's leading principal
    axis ``u``.  The sorted queries are walked in blocks (32 rows, then 128 at
    a time).  In each fragment a block takes the contiguous run of rows whose
    projections lie within ``[first - w, last + w]``, its own first and last
    projections widened by ``w``: 1.2 times the previous block's
    90th-percentile smaller m-th distance.  A window is widened to m rows, or
    to its whole fragment if smaller; the first block takes every row.  Each
    distance is formed in the same order as in the dense kernel, but BLAS may
    round ``q.f`` differently in a window, since the product's shape picks its
    kernel.  So the votes follow the rule except where two distances tie to
    within rounding; there the product's shape decides.  Elsewhere the block
    sizes, the reach and the axis decide only how much is pruned.

    **Certification.**  A windowed row stands when every row outside both
    windows is provably farther than its smaller m-th distance ``d``: with
    ``g`` the smaller of the projection gaps to the two fragments' nearest
    excluded rows, ``(g - dp)^2 > d + dd``.  Then ``d`` is its fragment's m-th
    distance, and the other fragment's is no smaller.  The margins
    bound rounding, with eps = 2^-53, h the feature dimension and ``r = |q| +
    max |f|`` over the bank rows of finite norm (a distance to any other row
    is inf or NaN, which sorts last):

    - a computed projection ``fl(u.x)`` is within ``h eps |u| |x|`` of
      ``u.x``, ``|u| = 1`` to within ``(h + 2) eps`` and ``g`` rounds once, so
      the true distance to an excluded row is at least ``g - (2h + 3) eps r``;
    - the computed squared distance is within ``(h + 2) eps r^2`` of the
      true one; the clip at zero only moves it toward the truth.

    The test uses ``dp = c r`` and ``dd = c r^2`` with ``c = 8 (h + 2) eps``,
    four or more times those bounds, which also covers rounding in ``r``, in
    the gap and in the test itself.  Each margin also carries ``(h + 3)``
    smallest subnormals for underflow.  Overflow gives an infinite or NaN
    distance or margin, which fails the test.

    **Fallback.**  Every row not certified (a window that missed a neighbour,
    a tie, a NaN or infinite feature) takes one dense kernel call per
    fragment, over its rows in bank order.  A bank with a non-finite entry has
    no axis, so all its rows take that call.  Every call walks its rows in
    blocks through two float buffers of about 256 KB, allocated once per vote.

    **One thread per vote, beside the next epoch's training.**  The sweep's
    operations are small, so threads spend more on hand-off than they save: on
    49 captured ``select-2k`` calls (2-vCPU host, BLAS at one thread), two
    threads each sweeping half the queries took 7.8 ms a call against 5.6 ms
    for one thread sweeping all.  A run uses a second CPU another way: see
    ``pipeline.run_experiment``.
    """
    n, size = len(queries), len(feats)
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
    # Each row's rounding margins dp and dd (see Certification).
    h = feats.shape[1]
    c = 8 * (h + 2) * np.finfo(np.float64).eps / 2
    underflow = (h + 3) * np.finfo(np.float64).smallest_subnormal
    reach = np.sqrt(q_norms) + np.sqrt(np.max(f_norms, where=np.isfinite(f_norms), initial=0.0))
    dp, dd = c * reach + underflow, c * reach * reach + underflow
    is_lower = tags == pair[0]
    members = (np.flatnonzero(is_lower), np.flatnonzero(~is_lower))  # in bank order
    floats = max(_BUFFER_FLOATS, size)
    buffers = (np.empty(floats), np.empty(floats))
    mth = np.empty((2, n))  # each fragment's m-th distance per row, in sweep order
    q_order = np.arange(n)
    certified = np.zeros(n, dtype=bool)
    if n and np.isfinite(feats).all():
        axis = _leading_axis(feats)
        f_proj = feats @ axis
        sweeps = []
        for rows in members:
            rows = rows[np.argsort(f_proj[rows], kind="stable")]
            sweeps.append((f_proj[rows], feats[rows], f_norms[rows]))
        # The query order only decides which block a row joins.
        q_proj = queries @ axis
        q_order = np.argsort(q_proj)
        q_proj = q_proj[q_order]
        queries, q_norms, dp, dd = (a[q_order] for a in (queries, q_norms, dp, dd))
        gap = np.full(n, np.inf)  # projection gap to the nearest row left out
        width = np.inf
        stops = list(range(min(_FIRST_ROWS, n), n, _SWEEP_ROWS)) + [n]
        for start, stop in zip([0] + stops[:-1], stops):
            here = slice(start, stop)
            for (proj, s_feats, s_norms), out in zip(sweeps, mth):
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
            nearer = np.minimum(*mth[:, here])
            top = (9 * (stop - start)) // 10
            width = _WINDOW_REACH * float(np.sqrt(np.partition(nearer, top)[top]))
        # Certify each row: the gap, less its margin, clears the smaller m-th distance.
        gap -= dp
        certified = (gap > 0.0) & (gap * gap > np.minimum(*mth) + dd)
    redo = np.flatnonzero(~certified)
    for rows, out in zip(members, mth):
        redone = np.empty(redo.size)
        _mth_nearest(queries[redo], q_norms[redo], feats[rows], f_norms[rows], m, buffers, redone)
        out[redo] = redone
    # Two m-th distances within dd may be one distance rounded two ways.
    lower, upper = mth
    lower_wins = lower + dd < upper
    tied = np.flatnonzero(~lower_wins & ~(upper + dd < lower))
    for start, d2 in _distances(queries[tied], q_norms[tied], feats, f_norms, buffers):
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        lower_wins[tied[start : start + len(d2)]] = 2 * is_lower[nearest].sum(axis=1) > k
    wins = np.empty(n, dtype=bool)  # in query order
    wins[q_order] = lower_wins
    return np.where(wins, *pair)

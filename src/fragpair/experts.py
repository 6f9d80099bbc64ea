"""Per-pair expert feature extractors, feature banks and K-NN voting."""

from __future__ import annotations

import warnings

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
            output_dim=1,
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
    return _forward(experts, pair, X)[0][:, 0]


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
    passes: Passes = {}
    for pair, net in experts.items():
        out, feats = forward_batch(net, ds.x)
        passes[pair] = out[:, 0], feats
    return passes


class KShrinkWarning(UserWarning):
    """K exceeded a feature bank and was shrunk to the largest odd K that fits."""


# Floats per distance buffer (256 KB).  A call allocates its buffers once and
# reuses them for every block.
_BUFFER_FLOATS = 1 << 15

# Sorted queries per block of the projection sweep.  Smaller blocks span
# narrower windows but pay numpy's per-call cost more often.
_SWEEP_ROWS = 128

# The first block takes the whole bank, so it is kept short.
_FIRST_ROWS = 32

# A block's window reaches this far past its queries' projections, in units
# of the previous block's 90th-percentile K-th distance.  A tighter window
# sends more rows to the dense fallback; a wider one computes more distances.
_WINDOW_REACH = 1.2


def _count_nearest(
    queries: np.ndarray,
    q_norms: np.ndarray,
    feats: np.ndarray,
    f_norms: np.ndarray,
    is_lower: np.ndarray,
    k: int,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Fill ``out`` = (lower, kth, within) per query row: lower-fragment entries
    among its k nearest columns of ``feats``, its k-th distance, and how many
    columns lie at or below that distance.

    Ties at the k-th distance that straddle the cut keep every column closer
    than it, then the first tied columns in column order.  Rows are walked in
    blocks through the flat ``buffers`` (two float, one bool), allocated once
    per call: fresh arrays per block would be handed back to the OS and
    faulted in again.
    """
    n, m = len(queries), len(feats)
    lower, kth, within = out
    d2_buf, part_buf, mask_buf = buffers
    block = max(1, len(d2_buf) // m)
    for start in range(0, n, block):
        stop = min(start + block, n)
        shape = (stop - start, m)
        size = shape[0] * m
        d2 = d2_buf[:size].reshape(shape)
        part = part_buf[:size].reshape(shape)
        mask = mask_buf[:size].reshape(shape)
        # (|q|^2 + |f|^2) - 2 q.f in that order for every window; q.f may still
        # round differently in another product shape (see knn_votes).
        np.copyto(d2, f_norms)
        np.add(d2, q_norms[start:stop, None], out=d2)
        np.matmul(queries[start:stop], feats.T, out=part)
        part *= 2.0
        d2 -= part
        np.maximum(d2, 0.0, out=part)
        part.partition(k - 1, axis=1)
        cut = part[:, k - 1 : k]
        kth[start:stop] = cut[:, 0]
        # cut >= 0, so comparing the unclipped d2 against it gives the same mask.
        np.less_equal(d2, cut, out=mask)
        here = within[start:stop]
        np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32, out=here)
        np.logical_and(mask, is_lower, out=mask)
        votes = lower[start:stop]
        np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32, out=votes)
        straddle = np.flatnonzero(here > k)
        if straddle.size:
            d2_s = np.maximum(d2[straddle], 0.0)
            cut_s = cut[straddle]
            closer = d2_s < cut_s
            tied = d2_s == cut_s
            need = k - closer.sum(axis=1)
            closer |= tied & (np.cumsum(tied, axis=1) <= need[:, None])
            votes[straddle] = (closer & is_lower).sum(axis=1)


def _counts(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.empty(n, dtype=np.int32), np.empty(n), np.empty(n, dtype=np.int32)


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
    0)``.  The K nearest are every entry closer than the K-th smallest
    distance, then the entries at exactly that distance in bank-index order:
    ties break toward the lower bank index, as a stable sort would.  K must
    be odd, so votes cannot tie; a K above the bank size is shrunk to the
    largest odd K the bank holds, with a :class:`KShrinkWarning`.

    **Projection sweep.**  Bank rows and queries are projected onto the
    bank's leading principal axis ``u`` and sorted by projection.  The sorted
    queries are walked in blocks (32 rows, then 128 at a time); a block
    computes distances only against the contiguous run of sorted bank rows
    whose projections lie within ``[first - w, last + w]``, its own first and
    last projections widened by ``w``, 1.2 times the previous block's
    90th-percentile K-th distance, and a window under K rows is widened to K
    rows.  The first block has no previous one and takes the whole bank in
    sorted order.  Each distance is formed in the same association order as
    against the whole bank, but BLAS may round ``q.f`` differently in a
    window than in the whole bank, since the product's shape picks its
    kernel: on 40 captured ``select-2k`` calls (numpy 2.4.6, OpenBLAS at one
    thread), 7,469 of 10.6 M sampled window products differed in bits from
    the dense ones.  So the votes equal the dense search's except where two
    distances tie to within rounding; there the product's shape decides.  On
    200 such calls (320,000 votes) none differed.

    **Certification.**  A windowed row's result is kept when exactly K window
    entries lie at or below its K-th distance ``kth`` (no tie straddles the
    cut) and every bank row left out is provably farther: with ``g`` the
    projection gap to the nearest excluded row, ``(g - dp)^2 > kth + dd``.
    The margins bound rounding, with eps = 2^-53, h the feature dimension and
    ``r = |q| + max |f|``:

    - a computed projection ``fl(u.x)`` is within ``h eps |u| |x|`` of
      ``u.x`` (any summation order, FMA or not), ``|u| = 1`` to within
      ``(h + 2) eps`` and ``g`` rounds once.  Since ``|u.(q - f)| <= |u| |q - f|``,
      the true distance to an excluded row is at least ``g - (2h + 3) eps r``;
    - the computed squared distance is within ``(h + 2) eps r^2`` of the
      true one: each of ``|q|^2``, ``|f|^2`` and ``q.f`` is within ``h eps``
      times its share of ``r^2``, and the add and the subtract round once
      each.  The clip at zero only moves it toward the truth.

    So an excluded row's computed distance exceeds ``kth`` whenever
    ``(g - (2h + 3) eps r)^2 - (h + 2) eps r^2 > kth``.  The test uses
    ``dp = c r`` and ``dd = c r^2`` with ``c = 8 (h + 2) eps``, four or more
    times those bounds, which also covers rounding in ``r``, in the gap and in
    the test itself; both grow with h, so a wider last hidden layer stays
    exact.  Each margin also carries ``(h + 3)`` smallest subnormals for
    underflow.  Overflow gives an infinite or NaN ``kth`` or margin, which
    fails the test.  A window that spans the bank has an infinite gap, so
    its rows stand unless a tie straddles the K-th distance.

    **Fallback.**  Every row not certified (a window that missed a neighbour,
    a straddling tie, a NaN or infinite feature) is recomputed in one call of
    the dense kernel against the whole bank in bank order, which applies the
    tie rule directly.  A bank with a non-finite entry has no axis, so all its
    rows take that call.  The kernel walks its rows in blocks of about 256 KB
    of distances through buffers allocated once per call.

    **One thread per vote, beside the next epoch's training.**  The sweep's
    operations are small, a 128-row block against a window of tens to a few
    hundred bank rows, so threads spend more on hand-off than they save: on
    49 captured ``select-2k`` calls (2-vCPU host, BLAS at one thread), two
    threads each sweeping half the queries took 7.8 ms a call against 5.6 ms
    for one thread sweeping all, and the sweep holds the GIL.  A run uses a
    second CPU another way: see ``pipeline.run_experiment``.

    Up to such near-ties, the votes do not depend on the block sizes, the
    window reach or the axis chosen; those decide only how much is pruned.
    """
    n, m = len(queries), len(feats)
    if K < 1 or K % 2 == 0:
        raise ExpertError("K must be odd and >= 1")
    if m == 0:
        raise ExpertError(f"feature bank for pair {pair} is empty")
    k = min(K, m - 1 + m % 2)  # the largest odd K the bank holds
    if k < K:
        warnings.warn(f"K={K} exceeds bank size {m} for pair {pair}; using K={k}", KShrinkWarning)
    queries = np.asarray(queries, dtype=np.float64)
    q_norms = (queries * queries).sum(axis=1)
    f_norms = (feats * feats).sum(axis=1)
    is_lower = tags == pair[0]
    floats = max(_BUFFER_FLOATS, m)
    buffers = (np.empty(floats), np.empty(floats), np.empty(floats, dtype=bool))
    lower, kth, within = _counts(n)
    # Rows in sweep order; a non-finite bank has no axis and skips the sweep.
    q_order = np.arange(n)
    certified = np.zeros(n, dtype=bool)
    if n and np.isfinite(feats).all():
        axis = _leading_axis(feats)
        f_proj = feats @ axis
        f_order = np.argsort(f_proj, kind="stable")
        f_proj = f_proj[f_order]
        s_feats, s_norms, s_lower = feats[f_order], f_norms[f_order], is_lower[f_order]
        # The query order only decides which block a row joins.
        q_proj = queries @ axis
        q_order = np.argsort(q_proj)
        q_proj = q_proj[q_order]
        queries, q_norms = queries[q_order], q_norms[q_order]
        # Each row's window [lo, hi) in sorted bank order.
        lo_of, hi_of = np.empty((2, n), dtype=np.intp)
        width = np.inf
        stops = list(range(min(_FIRST_ROWS, n), n, _SWEEP_ROWS)) + [n]
        for start, stop in zip([0] + stops[:-1], stops):
            here = slice(start, stop)
            lo = int(np.searchsorted(f_proj, q_proj[start] - width, "left"))
            hi = int(np.searchsorted(f_proj, q_proj[stop - 1] + width, "right"))
            lo = max(0, min(lo, hi - k))  # at least k rows
            hi = max(hi, lo + k)
            _count_nearest(
                queries[here], q_norms[here], s_feats[lo:hi], s_norms[lo:hi],
                s_lower[lo:hi], k, buffers, (lower[here], kth[here], within[here]),
            )
            lo_of[here], hi_of[here] = lo, hi
            top = (9 * (stop - start)) // 10
            width = _WINDOW_REACH * float(np.sqrt(np.partition(kth[here], top)[top]))
        # Certify each row: the projection gap to the nearest bank row outside
        # its window, less the rounding margins, must clear its K-th distance,
        # and no tie may straddle the cut.
        h = feats.shape[1]
        c = 8 * (h + 2) * np.finfo(np.float64).eps / 2
        underflow = (h + 3) * np.finfo(np.float64).smallest_subnormal
        reach = np.sqrt(q_norms) + np.sqrt(f_norms.max())
        padded = np.concatenate(([-np.inf], f_proj, [np.inf]))
        with np.errstate(invalid="ignore"):  # inf - inf where a query is infinite
            gap = np.minimum(q_proj - padded[lo_of], padded[hi_of + 1] - q_proj)
            gap -= c * reach + underflow
        margin = c * reach * reach + underflow
        certified = (within == k) & (gap > 0.0) & (gap * gap > kth + margin)
    redo = np.flatnonzero(~certified)
    if redo.size:
        redone = _counts(redo.size)
        _count_nearest(queries[redo], q_norms[redo], feats, f_norms, is_lower, k, buffers, redone)
        lower[redo] = redone[0]
    votes = np.empty(n, dtype=np.int32)  # lower-fragment votes in query order
    votes[q_order] = lower
    return np.where(2 * votes > k, *pair)

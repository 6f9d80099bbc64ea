"""Per-pair expert feature extractors, feature banks and K-NN voting."""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, field
import numpy as np

from .data import Dataset
from .fragments import JitteredScheme, Pairing
from .net import Net, NetSpec, forward_batch, init_net, train_step
from .rng import derive_seed, stream

Pair = tuple[int, int]

OBJECTIVES = ("classify", "regress")


class ExpertError(ValueError):
    """Raised for ensemble misuse: unknown pairs, empty training classes, bad K."""


@dataclass
class ExpertEnsemble:
    """One small network per contrastive fragment pair.

    ``classify`` experts emit the logit of membership in the lower-indexed
    fragment of their pair.  ``regress`` experts emit a normalized label
    prediction; :func:`predict_label` rescales it to label units.
    """

    pairing: Pairing
    experts: dict[Pair, Net]
    objective: str = "classify"
    label_lo: float = 0.0
    label_range: float = 1.0

    def expert_for(self, pair: Pair) -> Net:
        if pair not in self.experts:
            raise ExpertError(f"no expert for pair {pair}")
        return self.experts[pair]


def init_ensemble(
    pairing: Pairing,
    input_dim: int,
    hidden_dims: tuple[int, ...],
    activation: str,
    seed: int,
    objective: str = "classify",
    label_lo: float = 0.0,
    label_range: float = 1.0,
) -> ExpertEnsemble:
    """One deterministic network per pair, each with its own derived seed."""
    if objective not in OBJECTIVES:
        raise ExpertError(f"objective must be one of {OBJECTIVES}")
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
    return ExpertEnsemble(
        pairing=pairing,
        experts=experts,
        objective=objective,
        label_lo=label_lo,
        label_range=label_range,
    )


def _pair_training_set(
    ds: Dataset, js: JitteredScheme, pair: Pair
) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and fragment tags for one pair under this epoch's jittered coverage.

    A sample lying in the overlap of both pair members appears once per
    containing fragment, tagged with that fragment's id.
    """
    i, j = pair
    rows, frags = js.membership_rows_of(ds.y)
    keep = (frags == i) | (frags == j)
    return rows[keep], frags[keep]


def train_experts_epoch(
    ens: ExpertEnsemble,
    ds: Dataset,
    js: JitteredScheme,
    lr: float,
    batch_size: int,
    seed: int,
) -> dict[Pair, float]:
    """One epoch of mini-batch steps per expert; returns mean pre-step losses.

    Classification experts train with binary cross-entropy on logits (target
    1 for the lower-indexed fragment); regression experts train with mean
    squared error on normalized labels.  Shuffling is deterministic per
    (seed, pair).
    """
    if js.num_fragments != ens.pairing.num_fragments:
        raise ExpertError("jittered scheme and pairing disagree on fragment count")
    if batch_size < 1:
        raise ExpertError("batch_size must be >= 1")
    losses: dict[Pair, float] = {}
    for pair in ens.pairing.pairs:
        rows, tags = _pair_training_set(ds, js, pair)
        i, j = pair
        if not np.any(tags == i) or not np.any(tags == j):
            raise ExpertError(
                f"expert ({i}, {j}) has an empty training set for one fragment"
            )
        X = ds.x[rows]
        if ens.objective == "classify":
            targets = (tags == i).astype(np.float64)
            loss_name = "bce_logits"
        else:
            targets = (ds.y[rows] - ens.label_lo) / ens.label_range
            loss_name = "mse"
        order = stream(seed, "shuffle", pair).permutation(len(rows))
        net = ens.experts[pair]
        total = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            total += len(batch) * train_step(net, X[batch], targets[batch], loss_name, lr)
        # Sample-weighted mean: invariant to the shuffle when lr is zero.
        losses[pair] = total / len(order)
    return losses


def pair_logits(ens: ExpertEnsemble, pair: Pair, X: np.ndarray) -> np.ndarray:
    out, _ = forward_batch(ens.expert_for(pair), X)
    return out[:, 0]


def pair_features(ens: ExpertEnsemble, pair: Pair, X: np.ndarray) -> np.ndarray:
    _, feats = forward_batch(ens.expert_for(pair), X)
    return feats


def predict_label(ens: ExpertEnsemble, pair: Pair, X: np.ndarray) -> np.ndarray:
    """Regression experts' output rescaled to label units."""
    if ens.objective != "regress":
        raise ExpertError("predict_label requires a regression ensemble")
    return ens.label_lo + pair_logits(ens, pair, X) * ens.label_range


def classify_pair(ens: ExpertEnsemble, pair: Pair, x: np.ndarray) -> int:
    """Hard classification into one of the pair's fragments.

    Positive logit means the lower-indexed fragment; an exact zero logit is
    resolved to the higher-indexed fragment.
    """
    logit = float(pair_logits(ens, pair, np.asarray(x, dtype=np.float64)[None, :])[0])
    i, j = pair
    return i if logit > 0.0 else j


@dataclass
class FeatureBank:
    """Per-expert feature vectors of this epoch's pair members, tagged by fragment."""

    features: dict[Pair, np.ndarray] = field(default_factory=dict)
    frag_ids: dict[Pair, np.ndarray] = field(default_factory=dict)

    def size(self, pair: Pair) -> int:
        return 0 if pair not in self.frag_ids else len(self.frag_ids[pair])


def build_feature_bank(ens: ExpertEnsemble, ds: Dataset, js: JitteredScheme) -> FeatureBank:
    """Extract every pair member's features with the pair's current expert.

    Rebuilt after each training epoch: the feature space drifts as the
    experts train, so stale banks would vote in the wrong geometry.
    """
    bank = FeatureBank()
    for pair in ens.pairing.pairs:
        rows, tags = _pair_training_set(ds, js, pair)
        feats = pair_features(ens, pair, ds.x[rows]) if len(rows) else np.zeros((0, 1))
        bank.features[pair] = feats
        bank.frag_ids[pair] = tags
    return bank


def _effective_k(K: int, bank_size: int, pair: Pair) -> int:
    if K < 1 or K % 2 == 0:
        raise ExpertError("K must be odd and >= 1")
    if bank_size == 0:
        raise ExpertError(f"feature bank for pair {pair} is empty")
    if K > bank_size:
        k = bank_size if bank_size % 2 == 1 else bank_size - 1
        k = max(k, 1)
        warnings.warn(
            f"K={K} exceeds bank size {bank_size} for pair {pair}; using K={k}"
        )
        return k
    return K


# Distance rows per block: about 512 KB of float64 (74 rows at the default
# ~880-row bank), reused across blocks.  Larger blocks were no faster on one
# core and, where BLAS runs its own threads, slower on two.
_BLOCK_BYTES = 1 << 19

_pool = None  # (pid, ThreadPoolExecutor), created on the first multi-slab call
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_rows(bank_size: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * bank_size))


def _thread_pool():
    global _pool
    with _pool_lock:
        # A forked child inherits the executor but not its threads: start afresh.
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(_usable_cpus(), "fragpair-knn"))
        return _pool[1]


def _lower_votes_slab(
    queries: np.ndarray,
    q_norms: np.ndarray,
    feats: np.ndarray,
    f_norms: np.ndarray,
    is_lower: np.ndarray,
    k: int,
    block: int,
    out: np.ndarray,
) -> None:
    """Write into ``out`` each query row's count of lower-fragment entries among its k nearest.

    Walks the rows in blocks through buffers allocated once; fresh
    arrays per block would be handed back to the OS and faulted in again.
    """
    m = len(is_lower)
    rows = min(block, len(queries))
    d2_buf = np.empty((rows, m))
    gemm_buf = np.empty((rows, m))
    part_buf = np.empty((rows, m))
    mask_buf = np.empty((rows, m), dtype=bool)
    for start in range(0, len(queries), block):
        stop = min(start + block, len(queries))
        b = stop - start
        d2, gemm, part, mask = d2_buf[:b], gemm_buf[:b], part_buf[:b], mask_buf[:b]
        # (|q|^2 + |f|^2) - 2 q.f in that order: the same bits as the dense matrix.
        np.copyto(d2, f_norms)
        np.add(d2, q_norms[start:stop, None], out=d2)
        np.matmul(queries[start:stop], feats.T, out=gemm)
        gemm *= 2.0
        d2 -= gemm
        np.maximum(d2, 0.0, out=part)
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1 : k]
        # kth >= 0, so comparing the unclipped d2 against it gives the same mask.
        np.less_equal(d2, kth, out=mask)
        within = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)
        np.logical_and(mask, is_lower, out=mask)
        votes = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)
        # Rows whose ties at the k-th distance straddle the cut keep every
        # entry closer than kth, then the first tied entries by bank index.
        straddle = np.flatnonzero(within > k)
        if straddle.size:
            d2_s = np.maximum(d2[straddle], 0.0)
            kth_s = kth[straddle]
            closer = d2_s < kth_s
            tied = d2_s == kth_s
            need = k - closer.sum(axis=1)
            closer |= tied & (np.cumsum(tied, axis=1) <= need[:, None])
            votes[straddle] = (closer & is_lower).sum(axis=1)
        out[start:stop] = votes


def knn_votes(bank: FeatureBank, pair: Pair, queries: np.ndarray, K: int) -> np.ndarray:
    """Majority fragment id among the K nearest bank entries, per query row.

    Squared Euclidean distances are ``max((|q|^2 + |f|^2) - 2 q.f, 0)``.  The K
    nearest are every entry closer than the K-th smallest distance, then the
    entries at exactly that distance in bank-index order: ties break toward
    the lower bank index, as a stable sort would.  K is kept odd (shrunk if it
    exceeds the bank) so votes cannot tie.

    The queries are split into one contiguous slab per CPU in the process's
    affinity mask, run on a thread pool, and each slab is walked in blocks of
    about 512 KB of distances through buffers allocated once: about 1.6 MB
    per CPU, not a dense queries x bank matrix.  The votes do not depend on
    the number of CPUs.
    """
    if pair not in bank.features:
        raise ExpertError(f"feature bank holds no entries for pair {pair}")
    feats = bank.features[pair]
    tags = bank.frag_ids[pair]
    k = _effective_k(K, len(tags), pair)
    queries = np.asarray(queries, dtype=np.float64)
    q_norms = (queries * queries).sum(axis=1)
    f_norms = (feats * feats).sum(axis=1)
    i, j = pair
    is_lower = tags == i
    n = len(queries)
    block = _block_rows(len(tags))
    n_blocks = max(1, -(-n // block))
    lower_votes = np.empty(n, dtype=np.int32)
    # One contiguous slab of whole blocks per usable CPU.
    step = -(-n_blocks // min(_usable_cpus(), n_blocks)) * block
    slab_args = [
        (queries[s : s + step], q_norms[s : s + step], feats, f_norms, is_lower, k, block,
         lower_votes[s : s + step])
        for s in range(0, max(n, 1), step)
    ]
    # The calling thread takes the first slab while the pool runs the rest.
    futures = [_thread_pool().submit(_lower_votes_slab, *args) for args in slab_args[1:]]
    _lower_votes_slab(*slab_args[0])
    for future in futures:
        future.result()
    return np.where(2 * lower_votes > k, i, j)


def knn_classify(bank: FeatureBank, pair: Pair, feature: np.ndarray, K: int) -> int:
    """Single-query K-NN vote in one expert's feature space."""
    feature = np.asarray(feature, dtype=np.float64)
    return int(knn_votes(bank, pair, feature[None, :], K)[0])

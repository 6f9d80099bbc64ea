from __future__ import annotations

import re
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fragpair.experts as experts_mod
from fragpair.data import Dataset, generate_synthetic
from fragpair.experts import (
    ExpertError,
    build_feature_bank,
    init_ensemble,
    knn_votes,
    pair_features,
    pair_sets,
    pred_winners,
    train_experts_epoch,
)
from fragpair.fragments import FragmentationScheme, JitteredScheme, Pairing, fragment_labels
from fragpair.net import forward_batch
from oracles import classify_pair, feature_banks, forward, knn_classify

STRIDE = Pairing(pairs=((1, 3), (2, 4)))
ADJACENT = Pairing(pairs=((1, 2), (3, 4)))


def clean_dataset(n: int = 400, seed: int = 0) -> Dataset:
    return generate_synthetic(n, 2, 0.0, 100.0, feature_noise_std=0.05, seed=seed)


def make_ensemble(
    ds: Dataset,
    seed: int = 0,
    hidden_dims: tuple[int, ...] = (16, 8),
    activation: str = "relu",
):
    scheme = fragment_labels(ds, 4)
    experts = init_ensemble(
        STRIDE,
        input_dim=ds.d,
        hidden_dims=hidden_dims,
        activation=activation,
        seed=seed,
    )
    return experts, scheme


def norm_labels(ds: Dataset) -> np.ndarray:
    """A run's regression targets: the labels scaled to [0, 1] over their range."""
    return (ds.y - ds.label_min) / ds.label_range


class TestEnsembleInit:
    def test_one_expert_per_pair(self) -> None:
        ds = clean_dataset()
        experts, _ = make_ensemble(ds)
        assert list(experts) == [(1, 3), (2, 4)]
        for net in experts.values():
            assert forward_batch(net, ds.x)[0].shape == (ds.n,)

    def test_experts_get_distinct_seeds(self) -> None:
        ds = clean_dataset()
        experts, _ = make_ensemble(ds)
        w13 = experts[(1, 3)].weights[0]
        w24 = experts[(2, 4)].weights[0]
        assert not np.array_equal(w13, w24)


class TestTraining:
    def test_separated_fragments_reach_high_accuracy(self) -> None:
        ds = clean_dataset(n=400)
        experts, scheme = make_ensemble(ds)
        sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), ds.y)
        for epoch in range(50):
            train_experts_epoch(experts, ds, sets, None, lr=0.1, batch_size=32, seed=epoch)
        assignment = scheme.assign_many(ds.y)
        for pair in STRIDE.pairs:
            members = np.flatnonzero(np.isin(assignment, pair))
            hits = sum(
                classify_pair(experts, pair, ds.x[idx]) == assignment[idx]
                for idx in members
            )
            assert hits / len(members) > 0.95

    @pytest.mark.parametrize("regress", [False, True], ids=["classify", "regress"])
    def test_lr_zero_keeps_losses_constant(self, regress: bool) -> None:
        ds = clean_dataset(n=200)
        # Adjacent pairs, jittered: rows in the overlap of a pair's fragments train twice.
        experts = init_ensemble(ADJACENT, input_dim=ds.d, hidden_dims=(16, 8),
                                activation="relu", seed=0)
        sets = pair_sets(ADJACENT, JitteredScheme(base=fragment_labels(ds, 4), delta=4.0), ds.y)
        assert all(len(np.unique(rows)) < len(rows) for rows, _ in sets.values())
        labels = norm_labels(ds) if regress else None
        first = train_experts_epoch(experts, ds, sets, labels, lr=0.0, batch_size=64, seed=1)
        second = train_experts_epoch(experts, ds, sets, labels, lr=0.0, batch_size=64, seed=2)
        for pair in ADJACENT.pairs:
            assert first[pair] == pytest.approx(second[pair], abs=1e-12)
        if regress:
            for pair, (rows, _) in sets.items():
                out, _ = forward_batch(experts[pair], ds.x[rows])
                expected = np.mean((out - labels[rows]) ** 2)
                assert first[pair] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("regress", [False, True], ids=["classify", "regress"])
    def test_identical_seeds_identical_trajectories(self, regress: bool) -> None:
        ds = clean_dataset(n=200)
        labels = norm_labels(ds) if regress else None
        trajectories = []
        for _ in range(2):
            experts, scheme = make_ensemble(ds, seed=5)
            sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), ds.y)
            trajectories.append(
                [train_experts_epoch(experts, ds, sets, labels, 0.1, 32, seed=e) for e in range(5)]
            )
        assert trajectories[0] == trajectories[1]

    def test_empty_class_error_names_pair(self) -> None:
        # No labels land in fragment 3, starving expert (1, 3) of one class.
        rng = np.random.default_rng(0)
        y = np.concatenate(
            [rng.uniform(0, 25, 50), rng.uniform(30, 45, 50), rng.uniform(80, 100, 50)]
        )
        y[0], y[-1] = 0.0, 100.0
        ds = Dataset(x=np.stack([y / 100.0, y / 100.0], axis=1), y=y)
        with pytest.warns(UserWarning):
            scheme = fragment_labels(ds, 4)
        js = JitteredScheme(base=scheme, delta=0.0)
        with pytest.raises(ExpertError, match=r"\(1, 3\)"):
            pair_sets(STRIDE, js, ds.y)

    def test_overlap_duplicates_with_both_labels(self) -> None:
        # Adjacent pair plus a wide jitter buffer: samples near the shared
        # boundary must appear once per fragment in the pair's training set.
        ds = clean_dataset(n=300)
        scheme = fragment_labels(ds, 4)
        js = JitteredScheme(base=scheme, delta=4.0)
        rows, tags = pair_sets(ADJACENT, js, ds.y)[(1, 2)]
        duplicated = [r for r in np.unique(rows) if (rows == r).sum() == 2]
        assert duplicated
        for r in duplicated:
            assert sorted(tags[rows == r]) == [1, 2]


class TestClassifyPair:
    def _forced_logit_ensemble(self, ds: Dataset, logit: float):
        experts, scheme = make_ensemble(ds)
        net = experts[(1, 3)]
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = logit
        return experts

    def test_positive_logit_lower_fragment(self) -> None:
        ds = clean_dataset(50)
        experts = self._forced_logit_ensemble(ds, 3.2)
        assert classify_pair(experts, (1, 3), ds.x[0]) == 1

    def test_negative_logit_higher_fragment(self) -> None:
        ds = clean_dataset(50)
        experts = self._forced_logit_ensemble(ds, -0.1)
        assert classify_pair(experts, (1, 3), ds.x[0]) == 3

    def test_zero_logit_goes_to_higher_index(self) -> None:
        ds = clean_dataset(50)
        experts = self._forced_logit_ensemble(ds, 0.0)
        assert classify_pair(experts, (1, 3), ds.x[0]) == 3

    def test_unknown_pair(self) -> None:
        ds = clean_dataset(50)
        experts, _ = make_ensemble(ds)
        with pytest.raises(ExpertError):
            classify_pair(experts, (1, 2), ds.x[0])


class TestFeatureBank:
    """A pair's bank: the epoch's expert pass at the rows of its pair set."""

    def test_partition_without_jitter(self) -> None:
        ds = clean_dataset(n=100)
        experts, scheme = make_ensemble(ds)
        js = JitteredScheme(base=scheme, delta=0.0)
        banks = feature_banks(build_feature_bank(experts, ds), pair_sets(STRIDE, js, ds.y))
        total = sum(len(banks[pair][0]) for pair in STRIDE.pairs)
        assert total == 100
        for pair in STRIDE.pairs:
            assert set(np.unique(banks[pair][1])) <= set(pair)

    def test_jitter_overlap_adds_entries(self) -> None:
        ds = clean_dataset(n=300)
        experts, scheme = make_ensemble(ds)
        passes = build_feature_bank(experts, ds)
        bank0 = feature_banks(
            passes, pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), ds.y)
        )
        bank5 = feature_banks(
            passes, pair_sets(STRIDE, JitteredScheme(base=scheme, delta=5.0), ds.y)
        )
        assert sum(len(bank5[p][0]) for p in STRIDE.pairs) > sum(
            len(bank0[p][0]) for p in STRIDE.pairs
        )

    def test_bank_features_equal_expert_forward(self) -> None:
        ds = clean_dataset(n=60)
        experts, scheme = make_ensemble(ds)
        js = JitteredScheme(base=scheme, delta=0.0)
        banks = feature_banks(build_feature_bank(experts, ds), pair_sets(STRIDE, js, ds.y))
        assignment = scheme.assign_many(ds.y)
        pair = (1, 3)
        member_rows = np.flatnonzero(np.isin(assignment, pair))
        for row_pos, ds_idx in enumerate(member_rows):
            _, feats = forward(experts[pair], ds.x[ds_idx])
            # Single-row and batched matmuls may differ in the last ulp.
            assert np.allclose(banks[pair][0][row_pos], feats, rtol=0, atol=1e-12)

    # A last hidden layer of width 1 makes a row's features depend on which
    # rows share the matrix product: a separate pass over the bank rows
    # differs from the full pass in the last ulp on this dataset.
    @pytest.mark.parametrize(
        "hidden_dims, activation", [((16, 8), "relu"), ((16, 1), "tanh")]
    )
    def test_bank_is_the_pass_rows_bit_for_bit(self, hidden_dims, activation) -> None:
        ds = clean_dataset(n=390)
        experts, scheme = make_ensemble(ds, hidden_dims=hidden_dims, activation=activation)
        js = JitteredScheme(base=scheme, delta=5.0)
        sets = pair_sets(STRIDE, js, ds.y)
        train_experts_epoch(experts, ds, sets, None, lr=0.1, batch_size=32, seed=0)
        passes = build_feature_bank(experts, ds)
        banks = feature_banks(passes, sets)
        rows, frags = js.membership_rows(ds.y)
        for pair in STRIDE.pairs:
            out, feats = forward_batch(experts[pair], ds.x)
            keep = np.isin(frags, pair)
            assert np.array_equal(banks[pair][0], feats[rows[keep]])
            assert np.array_equal(banks[pair][1], frags[keep])
            assert np.array_equal(passes[pair][1], feats)
            assert np.array_equal(passes[pair][0], out)


class TestKnn:
    def _bank(self, n: int = 200, seed: int = 0, h: int = 4):
        """Random features and (1, 3) tags."""
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, h)), rng.choice([1, 3], size=n)

    def test_exact_hit_k1(self) -> None:
        feats, tags = self._bank()
        for idx in (0, 17, 199):
            got = knn_classify(feats, tags, feats[idx], 1, (1, 3))
            assert got == tags[idx]

    def test_majority_two_to_one(self) -> None:
        feats = np.array([[0.0], [0.1], [0.2], [5.0]])
        tags = np.array([1, 1, 3, 3])
        assert knn_classify(feats, tags, np.array([0.05]), 3, (1, 3)) == 1

    def test_agrees_with_naive_oracle(self) -> None:
        feats, tags = self._bank(n=200, seed=1)
        rng = np.random.default_rng(2)
        queries = rng.normal(size=(50, 4))
        got = knn_votes(feats, tags, queries, 5, (1, 3))
        for q, vote in zip(queries, got):
            dists = np.linalg.norm(feats - q, axis=1)
            order = sorted(range(len(dists)), key=lambda r: (dists[r], r))[:5]
            ones = sum(tags[r] == 1 for r in order)
            assert vote == (1 if ones > 2 else 3)

    def test_exact_distance_ties_prefer_lower_index(self) -> None:
        feats = np.array([[1.0], [1.0], [1.0], [1.0], [9.0]])
        # All four near entries tie at distance zero; K=1 must take index 0,
        # whichever fragment it belongs to.
        for tags in ([1, 3, 3, 3, 1], [3, 1, 1, 1, 3]):
            tags = np.array(tags)
            assert knn_classify(feats, tags, np.array([1.0]), 1, (1, 3)) == tags[0]

    def test_oversized_k_warns_and_uses_bank(self) -> None:
        feats, tags = self._bank(n=6, seed=3)
        with pytest.warns(UserWarning, match="exceeds bank size"):
            vote = knn_classify(feats, tags, np.zeros(4), 9, (1, 3))
        assert vote in (1, 3)

    def test_even_k_rejected(self) -> None:
        feats, tags = self._bank(n=10)
        with pytest.raises(ExpertError):
            knn_classify(feats, tags, np.zeros(4), 4, (1, 3))


def dense_d2(feats: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return np.maximum(
        (queries * queries).sum(axis=1)[:, None]
        + (feats * feats).sum(axis=1)[None, :]
        - 2.0 * (queries @ feats.T),
        0.0,
    )


def knn_oracle(feats: np.ndarray, tags: np.ndarray, pair, queries: np.ndarray, k: int):
    """Brute force: stable argsort of the dense squared-distance matrix."""
    i, j = pair
    nearest = np.argsort(dense_d2(feats, queries), axis=1, kind="stable")[:, :k]
    lower = (tags[nearest] == i).sum(axis=1)
    return np.where(2 * lower > k, i, j)


def straddling_rows(feats: np.ndarray, queries: np.ndarray, k: int) -> int:
    """Rows whose equal distances at the k-th slot reach past it."""
    d2 = dense_d2(feats, queries)
    kth = np.sort(d2, axis=1)[:, k - 1 : k]
    return int(((d2 <= kth).sum(axis=1) > k).sum())


def line_bank(seed: int, m: int, n: int, h: int = 8, spread: float = 0.02):
    """A bank and queries near one line through the origin, with random tags (2, 5)."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=h)
    axis /= np.linalg.norm(axis)
    feats = rng.uniform(0, 10, (m, 1)) * axis + spread * rng.normal(size=(m, h))
    queries = rng.uniform(-0.5, 10.5, (n, 1)) * axis + spread * rng.normal(size=(n, h))
    return feats, rng.choice((2, 5), size=m), queries


def isotropic_bank(seed: int):
    """Random features and queries in h=8, with random tags (2, 5)."""
    rng = np.random.default_rng(seed)
    feats, queries = rng.normal(size=(500, 8)), rng.normal(size=(900, 8))
    return feats, rng.choice((2, 5), size=500), queries


def tie_heavy_bank(seed: int, integer: bool):
    """TestKnnOracle's tie-heavy bank and 500 queries on and off its rows."""
    rng, feats, tags = TestKnnOracle._tie_heavy(seed, integer)
    return feats, tags, TestKnnOracle._queries(rng, feats, 500, integer)


def both_tags_bank(seed: int, h: int = 4):
    """Every row twice, once under each tag of (2, 5), and queries on and off the rows."""
    rng = np.random.default_rng(seed)
    distinct = rng.normal(size=(300, h)) * 3.0
    order = rng.permutation(600)
    feats, tags = np.repeat(distinct, 2, axis=0)[order], np.tile((2, 5), 300)[order]
    return feats, tags, np.concatenate([distinct, rng.normal(size=(300, h)) * 3.0])


def non_finite_queries_bank(seed: int):
    """A line bank whose queries hold NaN, +inf and -inf entries."""
    feats, tags, queries = line_bank(seed, 400, 700)
    queries[[0, 350, 699], 1] = np.nan
    queries[[1, 351], 0] = np.inf
    queries[[2, 352], 2] = -np.inf
    return feats, tags, queries


def mth_ties(feats: np.ndarray, tags: np.ndarray, queries: np.ndarray, k: int, lower_tag) -> int:
    """Rows whose two fragments' m-th dense distances, m = (k + 1) / 2, are exactly equal."""
    d2, m = dense_d2(feats, queries), (k + 1) // 2
    lower, upper = (np.sort(d2[:, rows], axis=1)[:, m - 1]
                    for rows in (tags == lower_tag, tags != lower_tag))
    return int((lower == upper).sum())


def dense_votes(feats: np.ndarray, tags: np.ndarray, pair, queries: np.ndarray, k: int):
    """The dense kernel alone, every query against each fragment's rows in bank
    order; rows whose m-th distances tie take the stable-argsort oracle."""
    i, j = pair
    floats = max(experts_mod._BUFFER_FLOATS, len(feats))
    buffers = (np.empty(floats), np.empty(floats))
    lower, upper = np.empty((2, len(queries)))
    for tag, out in ((i, lower), (j, upper)):
        rows = feats[tags == tag]
        experts_mod._mth_nearest(queries, (queries * queries).sum(axis=1), rows,
                                 (rows * rows).sum(axis=1), (k + 1) // 2, buffers, out)
    wins = lower < upper
    tied = ~wins & ~(upper < lower)
    wins[tied] = knn_oracle(feats, tags, pair, queries[tied], k) == i
    return np.where(wins, i, j)


def traced_votes(feats: np.ndarray, tags: np.ndarray, queries: np.ndarray, K: int,
                 pair) -> SimpleNamespace:
    """knn_votes, and what its index did: the ``votes``; the index's ``args``
    and output ``mth`` and ``certified``; ``evals``, the distances its kernel
    calls evaluated; and ``dense``, the (query rows, bank rows) of each kernel
    call the rule made outside the index."""
    trace = SimpleNamespace(evals=0, dense=[], inside=False)
    kernel, index = experts_mod._mth_nearest, experts_mod._sweep_mth

    def counting(q, q_norms, f, *args):
        if trace.inside:
            trace.evals += len(q) * len(f)
        else:
            trace.dense.append((q.copy(), f.copy()))
        return kernel(q, q_norms, f, *args)

    def indexing(*args):
        trace.args, trace.inside = args, True
        mth, trace.certified = index(*args)
        trace.mth, trace.inside = mth.copy(), False  # the rule fills in the uncertified rows
        return mth, trace.certified

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experts_mod, "_mth_nearest", counting)
        patch.setattr(experts_mod, "_sweep_mth", indexing)
        trace.votes = knn_votes(feats, tags, queries, K, pair)
    return trace


def assert_index_contract(trace, feats: np.ndarray, tags: np.ndarray) -> None:
    """The contract of knn_votes' index, checked against the dense kernel over
    each whole fragment: a certified row's smaller m-th distance is within dd
    of the dense one, and its two m-th distances order the fragments as the
    dense ones do wherever they differ by more than dd.  Every uncertified row
    goes to the rule's dense calls, one per fragment, over its rows in bank
    order."""
    queries, q_norms, _, f_norms, is_lower, m, _, dd, _ = trace.args
    floats = max(experts_mod._BUFFER_FLOATS, len(feats))
    buffers = (np.empty(floats), np.empty(floats))
    dense = np.empty((2, len(queries)))
    for rows, out in zip((is_lower, ~is_lower), dense):
        experts_mod._mth_nearest(queries, q_norms, feats[rows], f_norms[rows], m, buffers, out)
    ok = trace.certified
    got, want, margin = trace.mth[:, ok], dense[:, ok], dd[ok]
    got_min, want_min = np.minimum(*got), np.minimum(*want)
    assert np.all((got_min == want_min) | (np.abs(got_min - want_min) <= margin))
    apart = np.abs(got[0] - got[1]) > margin
    assert np.array_equal(got[0][apart] < got[1][apart], want[0][apart] < want[1][apart])
    assert [len(f) for _, f in trace.dense] == [is_lower.sum(), (~is_lower).sum()]
    for (q, f), rows in zip(trace.dense, (is_lower, ~is_lower)):
        assert np.array_equal(q, queries[~ok], equal_nan=True)
        assert np.array_equal(f, feats[rows], equal_nan=True)


class TestKnnOracle:
    PAIR = (2, 5)
    BANK = 601  # odd, so K equal to the bank size is kept as is

    @classmethod
    def _tie_heavy(cls, seed: int, integer: bool):
        """A bank of few distinct rows (duplicated rows and tags) and queries on them."""
        rng = np.random.default_rng(seed)
        if integer:
            feats = rng.integers(-2, 3, size=(cls.BANK, 3)).astype(np.float64)
        else:
            distinct = rng.normal(size=(40, 3))
            feats = distinct[rng.integers(0, 40, cls.BANK)]
        tags = rng.choice(cls.PAIR, size=cls.BANK)
        return rng, feats, tags

    @staticmethod
    def _queries(rng, feats, n: int, integer: bool) -> np.ndarray:
        on_bank = feats[rng.integers(0, len(feats), n - n // 2)]
        if integer:
            off_bank = rng.integers(-3, 4, size=(n // 2, feats.shape[1])).astype(np.float64)
        else:
            off_bank = rng.normal(size=(n // 2, feats.shape[1]))
        return np.concatenate([on_bank, off_bank])

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("K", [1, 3, 5, 7])
    def test_ties_match_stable_sort(self, integer: bool, K: int) -> None:
        feats, tags, queries = tie_heavy_bank(K, integer)
        assert straddling_rows(feats, queries, K) > 0
        assert mth_ties(feats, tags, queries, K, self.PAIR[0]) > 0
        got = knn_votes(feats, tags, queries, K, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))

    def test_query_counts_around_the_block_size(self) -> None:
        rng, feats, tags = self._tie_heavy(11, integer=True)
        first, rows = experts_mod._FIRST_ROWS, experts_mod._SWEEP_ROWS
        assert first > 2 and rows > 2
        for n in (0, 1, first - 1, first, first + 1, first + rows - 1, first + rows,
                  first + rows + 1, first + 4 * rows + 3):
            queries = self._queries(rng, feats, n, integer=True)
            got = knn_votes(feats, tags, queries, 5, self.PAIR)
            assert got.shape == (n,)
            assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 5))

    @pytest.mark.parametrize("rows", [1, 7, 128, "all"])
    def test_votes_do_not_depend_on_block_rows(self, rows, monkeypatch) -> None:
        rng, feats, tags = self._tie_heavy(12, integer=False)
        queries = self._queries(rng, feats, 707, False)
        rows = len(queries) if rows == "all" else rows
        monkeypatch.setattr(experts_mod, "_FIRST_ROWS", rows)
        monkeypatch.setattr(experts_mod, "_SWEEP_ROWS", rows)
        got = knn_votes(feats, tags, queries, 7, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 7))
        line_feats, line_tags, line_queries = line_bank(12, 500, 700, h=4)
        got = knn_votes(line_feats, line_tags, line_queries, 7, self.PAIR)
        assert np.array_equal(
            got, knn_oracle(line_feats, line_tags, self.PAIR, line_queries, 7)
        )

    def test_k_equal_to_bank_size(self) -> None:
        rng, feats, tags = self._tie_heavy(13, integer=True)
        queries = self._queries(rng, feats, 50, integer=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = knn_votes(feats, tags, queries, self.BANK, self.PAIR)
        majority = 2 if 2 * (tags == 2).sum() > self.BANK else 5
        assert np.all(got == majority)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, self.BANK))

    def test_k_larger_than_bank_warns(self) -> None:
        rng, feats, tags = self._tie_heavy(14, integer=True)
        queries = self._queries(rng, feats, 50, integer=True)
        with pytest.warns(UserWarning, match="exceeds bank size"):
            got = knn_votes(feats, tags, queries, self.BANK + 2, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, self.BANK))

    @pytest.mark.parametrize("h", [2, 8, 16])
    def test_every_row_under_both_tags(self, h: int, monkeypatch) -> None:
        # Each row's two copies tie exactly, so each query's two m-th distances
        # tie, and only the bank index may decide.  Windows too short to
        # certify send most rows to the dense calls, one per fragment, where
        # the copies' q.f can round apart.
        monkeypatch.setattr(experts_mod, "_FIRST_ROWS", 1)
        monkeypatch.setattr(experts_mod, "_WINDOW_REACH", 0.0)
        feats, tags, queries = both_tags_bank(h, h)
        for K in (1, 3, 5):
            assert mth_ties(feats, tags, queries, K, self.PAIR[0]) > 0
            got = knn_votes(feats, tags, queries, K, self.PAIR)
            assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))

    @pytest.mark.parametrize("K", [1, 5])
    def test_run_bank_with_rows_under_both_tags(self, K: int) -> None:
        # An adjacent pairing's jitter puts rows near the shared boundary in
        # both fragments, so they sit in the bank twice, once under each tag
        # (38 and 43 rows here): ties at distance zero between different tags.
        ds = clean_dataset(n=390)
        experts = init_ensemble(ADJACENT, input_dim=ds.d, hidden_dims=(16, 8),
                                activation="relu", seed=0)
        sets = pair_sets(ADJACENT, JitteredScheme(base=fragment_labels(ds, 4), delta=5.0), ds.y)
        train_experts_epoch(experts, ds, sets, None, lr=0.1, batch_size=32, seed=0)
        passes = build_feature_bank(experts, ds)
        for pair, (rows, tags) in sets.items():
            unique, counts = np.unique(rows, return_counts=True)
            twice = unique[counts == 2]
            assert len(twice) > 30 and counts.max() == 2
            assert all(set(tags[rows == row]) == set(pair) for row in twice)
            feats = passes[pair][1]
            got = knn_votes(feats[rows], tags, feats, K, pair)
            assert np.array_equal(got, knn_oracle(feats[rows], tags, pair, feats, K))


class TestKnnSweep:
    """The projection sweep against the stable-argsort oracle, where it prunes
    and where it cannot, seen through what it certifies."""

    PAIR = (2, 5)

    @pytest.mark.parametrize("h", [1, 8, 64])
    @pytest.mark.parametrize("K", [1, 5, 9])
    def test_line_bank_pruned_and_exact(self, h: int, K: int) -> None:
        feats, tags, queries = line_bank(h * 10 + K, 800, 1600, h=h)
        trace = traced_votes(feats, tags, queries, K, self.PAIR)
        assert np.array_equal(trace.votes, knn_oracle(feats, tags, self.PAIR, queries, K))
        assert trace.certified.mean() > 0.9
        assert 0 < trace.evals < 0.3 * len(queries) * len(feats)

    def test_fallback_runs_on_few_rows_of_a_pruned_bank(self) -> None:
        feats, tags, queries = line_bank(3, 900, 1600)
        trace = traced_votes(feats, tags, queries, 5, self.PAIR)
        assert np.array_equal(trace.votes, knn_oracle(feats, tags, self.PAIR, queries, 5))
        # The first block's rows take the whole bank; the fallback takes few rows.
        assert trace.evals >= experts_mod._FIRST_ROWS * len(feats)
        assert (~trace.certified).sum() <= 0.05 * len(queries)
        assert [len(q) for q, _ in trace.dense] == [(~trace.certified).sum()] * 2

    @pytest.mark.parametrize("K", [1, 5, 7])
    def test_isotropic_bank(self, K: int) -> None:
        feats, tags, queries = isotropic_bank(K)
        got = knn_votes(feats, tags, queries, K, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))

    @pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.6, 0.8, 0.0)])
    @pytest.mark.parametrize("reach", [0.3, 1.2])
    @pytest.mark.parametrize("K", [3, 5, 7])
    def test_ties_across_window_edges(self, axis, reach: float, K: int, monkeypatch) -> None:
        # Triplicated bank rows at integer points of a line, in shuffled bank
        # order; queries at integer and half-integer points see equal
        # distances on both sides, so short windows cut tied groups apart.
        rng = np.random.default_rng(K)
        points = rng.permutation(np.repeat(np.arange(120.0), 3))
        feats = points[:, None] * np.array(axis)
        tags = rng.choice(self.PAIR, size=len(points))
        queries = rng.integers(0, 240, 900)[:, None] / 2.0 * np.array(axis)
        assert straddling_rows(feats, queries, K) > 0
        assert mth_ties(feats, tags, queries, K, self.PAIR[0]) > 0
        monkeypatch.setattr(experts_mod, "_WINDOW_REACH", reach)
        got = knn_votes(feats, tags, queries, K, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))

    def test_one_dense_call_per_vote(self, monkeypatch) -> None:
        # Triplicated bank rows on a line, and windows too short to hold every
        # tied neighbour, so many rows fail certification.
        monkeypatch.setattr(experts_mod, "_WINDOW_REACH", 0.3)
        rng = np.random.default_rng(15)
        points = rng.permutation(np.repeat(np.arange(120.0), 3))
        feats = points[:, None] * np.array((0.6, 0.8, 0.0))
        tags = rng.choice(self.PAIR, size=len(points))
        queries = rng.integers(0, 240, 900)[:, None] / 2.0 * np.array((0.6, 0.8, 0.0))
        assert straddling_rows(feats, queries, 5) > 0
        trace = traced_votes(feats, tags, queries, 5, self.PAIR)
        assert np.array_equal(trace.votes, knn_oracle(feats, tags, self.PAIR, queries, 5))
        assert (~trace.certified).any()
        assert_index_contract(trace, feats, tags)

    def test_query_off_the_line_falls_back(self) -> None:
        feats, tags, queries = line_bank(5, 600, 1000, h=2)
        centre = feats.mean(axis=0)
        normal = np.array([-centre[1], centre[0]]) / np.linalg.norm(centre)
        # Projects into the middle of the bank but lies far from every row.
        queries[500] = centre + 3.0 * normal
        trace = traced_votes(feats, tags, queries, 5, self.PAIR)
        assert np.array_equal(trace.votes, knn_oracle(feats, tags, self.PAIR, queries, 5))
        assert not trace.certified[500]
        assert (~trace.certified).sum() < 50
        assert_index_contract(trace, feats, tags)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries(self, bad: float) -> None:
        feats, tags, queries = line_bank(6, 400, 700)
        rows = [0, 350, 699]
        queries[rows, 1] = bad
        trace = traced_votes(feats, tags, queries, 5, self.PAIR)
        assert not trace.certified[rows].any()
        got = trace.votes
        finite = np.setdiff1d(np.arange(len(queries)), rows)
        assert np.array_equal(
            got[finite], knn_oracle(feats, tags, self.PAIR, queries[finite], 5)
        )
        assert np.array_equal(got, dense_votes(feats, tags, self.PAIR, queries, 5))

    def test_nan_bank_rows(self, monkeypatch) -> None:
        feats, tags, queries = line_bank(7, 400, 700)
        feats[[3, 200], 0] = np.nan
        tie_rule_rows = []  # query rows of each whole-bank distance pass
        distances = experts_mod._distances

        def tracing(q, q_norms, f, *args):
            if len(f) == len(feats):
                tie_rule_rows.append(len(q))
            return distances(q, q_norms, f, *args)

        monkeypatch.setattr(experts_mod, "_distances", tracing)
        trace = traced_votes(feats, tags, queries, 5, self.PAIR)
        got = trace.votes
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 5))
        assert np.array_equal(got, dense_votes(feats, tags, self.PAIR, queries, 5))
        # A bank with a non-finite entry has no axis: every row takes the dense calls.
        assert not trace.certified.any() and trace.evals == 0
        # A NaN bank row widens no row's rounding margin, so the m-th
        # distances still decide, not the whole-bank argsort.
        assert sum(tie_rule_rows) < 0.05 * len(queries)

    def test_query_counts_around_the_sweep_blocks(self) -> None:
        feats, tags, all_queries = line_bank(8, 700, 700)
        first, rows = experts_mod._FIRST_ROWS, experts_mod._SWEEP_ROWS
        for n in (0, 1, rows - 1, rows, rows + 1, first + rows - 1, first + rows,
                  first + rows + 1):
            queries = all_queries[:n]
            got = knn_votes(feats, tags, queries, 5, self.PAIR)
            assert got.shape == (n,)
            assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 5))

    def test_k_equal_to_and_above_the_bank_size(self) -> None:
        feats, tags, queries = line_bank(9, 301, 400)
        expected = knn_oracle(feats, tags, self.PAIR, queries, 301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(knn_votes(feats, tags, queries, 301, self.PAIR), expected)
        with pytest.warns(UserWarning, match="exceeds bank size"):
            assert np.array_equal(knn_votes(feats, tags, queries, 303, self.PAIR), expected)


class TestIndexContract:
    """knn_votes' index against the dense kernel over each whole fragment (see
    assert_index_contract), on banks where it prunes, where it cannot, where
    ties abound and where queries are not finite."""

    PAIR = (2, 5)
    BANKS = {
        "line_h1": lambda: line_bank(31, 800, 1600, h=1),
        "line_h8": lambda: line_bank(32, 800, 1600, h=8),
        "line_h64": lambda: line_bank(33, 800, 1600, h=64),
        "isotropic": lambda: isotropic_bank(34),
        "tie_heavy_float": lambda: tie_heavy_bank(35, integer=False),
        "tie_heavy_integer": lambda: tie_heavy_bank(36, integer=True),
        "both_tags": lambda: both_tags_bank(37),
        "non_finite_queries": lambda: non_finite_queries_bank(38),
    }

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("K", [1, 5, 9])
    @pytest.mark.parametrize("bank", list(BANKS))
    def test_certified_rows_meet_the_contract(self, bank: str, K: int) -> None:
        feats, tags, queries = self.BANKS[bank]()
        trace = traced_votes(feats, tags, queries, K, self.PAIR)
        assert trace.certified.any()
        assert_index_contract(trace, feats, tags)


class TestKnnTieRule:
    """The tie rule's k-th-value selection against the stable-argsort oracle at its edges."""

    PAIR = (2, 5)
    # Small integers keep every product exact; an infinite feature gives a
    # distance of +inf or NaN by the sign of the query's coordinate.
    VALUES = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_small_banks_with_duplicates_and_non_finite_features(self, data) -> None:
        size, h = data.draw(st.integers(3, 40)), data.draw(st.integers(1, 3))
        distinct = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), h), elements=self.VALUES))
        picks = data.draw(arrays(np.int64, size, elements=st.integers(0, len(distinct) - 1)))
        feats = distinct[picks]
        tags = np.array(self.PAIR)[data.draw(arrays(np.int64, size, elements=st.integers(0, 1)))]
        others = data.draw(arrays(np.float64, (data.draw(st.integers(0, 8)), h), elements=self.VALUES))
        queries = np.concatenate([feats, others])
        K = 2 * data.draw(st.integers(0, (size - 1) // 2)) + 1
        got = knn_votes(feats, tags, queries, K, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_inf_before_nan_decides_a_vote(self) -> None:
        # From the query -1: NaN, NaN, 1 and +inf.  The first three in stable
        # order are 1 and +inf (lower) and the first NaN (upper), so the lower
        # fragment wins; taking NaN as +inf would take both NaNs instead.
        feats = np.array([[np.nan], [np.nan], [0.0], [np.inf]])
        tags = np.array([5, 5, 2, 2])
        queries = np.array([[-1.0]])
        assert knn_oracle(feats, tags, self.PAIR, queries, 3).tolist() == [2]
        assert knn_votes(feats, tags, queries, 3, self.PAIR).tolist() == [2]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("infinite", [False, True], ids=["finite", "infinite_entry"])
    def test_all_zero_queries_take_one_count(self, infinite: bool, monkeypatch) -> None:
        # Collapsed ReLU features: all-zero rows in both fragments, so every
        # all-zero query (-0.0 ones too) ties; against an infinite entry its
        # distance is NaN, the same for each of them.
        rng = np.random.default_rng(19)
        feats = np.maximum(rng.normal(size=(400, 8)), 0.0)
        feats[rng.random(400) < 0.4] = 0.0
        if infinite:
            feats[7, 2] = np.inf
        tags = rng.choice(self.PAIR, size=400)
        queries = np.concatenate([feats, -np.zeros((5, 8))])
        counted = []  # the query rows of each whole-bank distance pass
        distances = experts_mod._distances

        def tracing(q, q_norms, f, *args):
            if len(f) == len(feats):
                counted.append(q.copy())
            return distances(q, q_norms, f, *args)

        monkeypatch.setattr(experts_mod, "_distances", tracing)
        trace = traced_votes(feats, tags, queries, 5, self.PAIR)
        assert np.array_equal(trace.votes, knn_oracle(feats, tags, self.PAIR, queries, 5))
        zero = ~queries.any(axis=1)
        assert zero.sum() > 100
        # One all-zero row in the tie count, and at most one in the index and
        # so in the dense calls.
        assert (~np.concatenate(counted).any(axis=1)).sum() == 1
        assert (~trace.args[0].any(axis=1)).sum() <= 1
        assert trace.certified.any() != infinite
        assert_index_contract(trace, feats, tags)


class TestWorkspace:
    """Each thread's two distance buffers, reused by every call of that thread."""

    PAIR = (2, 5)

    @staticmethod
    def _bank(seed: int, size: int):
        rng = np.random.default_rng(seed)
        feats = rng.integers(-2, 3, size=(size, 3)).astype(np.float64)
        queries = np.concatenate([feats, rng.integers(-3, 4, size=(size // 2, 3)).astype(np.float64)])
        return feats, rng.choice((2, 5), size=size), queries

    def _votes_match(self, seed: int, size: int, K: int = 5) -> None:
        feats, tags, queries = self._bank(seed, size)
        got = knn_votes(feats, tags, queries, K, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))

    @staticmethod
    def _in_threads(targets) -> None:
        """Run each target in its own thread at once; raise the first failure."""
        failures = []

        def guarded(target):
            try:
                target()
            except BaseException as exc:  # reported below, in the test's thread
                failures.append(exc)

        threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if failures:
            raise failures[0]

    def test_large_then_small_then_large_bank(self, monkeypatch) -> None:
        # Buffers of a few bank rows, so the 500-row bank grows them; a new
        # thread starts with none.
        monkeypatch.setattr(experts_mod, "_BUFFER_FLOATS", 64)
        held = []

        def calls():
            self._votes_match(1, 500)
            held.append(experts_mod._workspace.buffers)
            self._votes_match(2, 30)
            held.append(experts_mod._workspace.buffers)
            self._votes_match(3, 500, K=7)
            held.append(experts_mod._workspace.buffers)

        self._in_threads([calls])
        assert [len(buffers[0]) for buffers in held] == [500, 500, 500]
        assert all(buffers is held[0] for buffers in held)

    def test_peak_memory_grows_with_the_inputs_not_their_product(self) -> None:
        # Integer features in {-1, 0, 1}: 81 distinct rows, so nearly every
        # query's two m-th distances tie and it goes to the tie count, whose
        # dense queries x bank matrix would take 96 MB.
        rng = np.random.default_rng(16)
        feats = rng.integers(-1, 2, size=(4000, 4)).astype(np.float64)
        queries = rng.integers(-1, 2, size=(3000, 4)).astype(np.float64)
        tags = rng.choice(self.PAIR, size=len(feats))
        knn_votes(feats, tags, queries, 5, self.PAIR)  # sizes this thread's buffers
        buffers = sum(buffer.nbytes for buffer in experts_mod._workspace.buffers)
        tracemalloc.start()
        try:
            knn_votes(feats, tags, queries, 5, self.PAIR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * (feats.nbytes + queries.nbytes) + buffers

    def test_threads_at_once(self, monkeypatch) -> None:
        monkeypatch.setattr(experts_mod, "_BUFFER_FLOATS", 64)
        held = []

        def calls(thread: int):
            for size in (40, 300, 90, 301):
                self._votes_match(10 * thread + size, size)
            held.append(experts_mod._workspace.buffers)

        self._in_threads([lambda t=t: calls(t) for t in range(4)])
        assert len(held) == 4
        assert not any(np.shares_memory(a[0], b[0]) or np.shares_memory(a[1], b[1])
                       for i, a in enumerate(held) for b in held[i + 1 :])


@pytest.mark.parametrize("bank, tags, queries, K, message", [
    ((0, 2), 0, (2, 2), 1, "feature bank for pair (1, 3) is empty"),
    ((4, 2), 4, (2, 2), 4, "K must be odd and >= 1"),
    ((4, 2), 4, (2, 2), 0, "K must be odd and >= 1"),
    ((50, 2), 50, (2, 3), 5, "queries (2, 3) and tags (50,) do not fit bank (50, 2)"),
    ((50, 2), 50, (2,), 5, "queries (2,) and tags (50,) do not fit bank (50, 2)"),
    ((50, 2), 50, (2, 2, 1), 5, "queries (2, 2, 1) and tags (50,) do not fit bank (50, 2)"),
    ((50, 2), 45, (2, 2), 5, "queries (2, 2) and tags (45,) do not fit bank (50, 2)"),
    ((50, 2), 55, (2, 2), 5, "queries (2, 2) and tags (55,) do not fit bank (50, 2)"),
], ids=["empty_bank", "even_k", "zero_k", "queries_too_wide", "queries_1d", "queries_3d",
        "tags_too_few", "tags_too_many"])
def test_knn_vote_inputs_checked(bank, tags, queries, K, message) -> None:
    # Shapes: the bank's, the number of tags and the queries'.
    with pytest.raises(ExpertError, match=f"^{re.escape(message)}$"):
        knn_votes(np.zeros(bank), np.resize([1, 3], tags), np.zeros(queries), K, (1, 3))


def test_knn_votes_take_lists() -> None:
    # A bank, its tags and the queries given as lists vote as the arrays do.
    rng = np.random.default_rng(0)
    feats, queries, tags = rng.normal(size=(50, 2)), rng.normal(size=(20, 2)), [1, 3] * 25
    expected = knn_votes(feats, np.array(tags), queries, 5, (1, 3))
    assert set(expected.tolist()) == {1, 3}
    assert np.array_equal(knn_votes(feats.tolist(), tags, queries.tolist(), 5, (1, 3)), expected)


def test_pred_vote_boundaries() -> None:
    # Binary-exact means, so that a rescaled output can lie exactly between two.
    scheme = FragmentationScheme(
        boundaries=np.array([0.0, 25.0, 50.0, 75.0, 100.0]),
        means=np.array([12.5, 37.5, 62.5, 87.5]),
        counts=np.array([1, 1, 1, 1]),
    )
    features = np.zeros((4, 2))
    # A classifier's logit of exactly 0 (of either sign) votes for the upper fragment j.
    logits = np.array([-1.0, -0.0, 0.0, 5e-324])
    votes = pred_winners(scheme, {(1, 3): (logits, features)}, regress=False)
    assert votes[(1, 3)].tolist() == [3, 3, 3, 1]
    # A regression output rescaled to 12.5, 37.5, 62.5 and 87.5: 37.5 lies
    # midway between means 1 and 3, 62.5 midway between means 2 and 4, and
    # there the vote is 0, neither fragment.
    outs = np.array([0.125, 0.375, 0.625, 0.875])
    votes = pred_winners(scheme, {(1, 3): (outs, features), (2, 4): (outs, features)}, regress=True)
    assert votes[(1, 3)].tolist() == [1, 0, 3, 3]
    assert votes[(2, 4)].tolist() == [2, 2, 0, 4]

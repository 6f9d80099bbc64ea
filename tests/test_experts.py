from __future__ import annotations

import warnings

import numpy as np
import pytest

import fragpair.experts as experts_mod
from fragpair.data import Dataset, generate_synthetic
from fragpair.experts import (
    ExpertError,
    build_feature_bank,
    init_ensemble,
    knn_votes,
    pair_features,
    pair_sets,
    train_experts_epoch,
)
from fragpair.fragments import JitteredScheme, Pairing, fragment_labels
from fragpair.net import forward_batch
from oracles import classify_pair, feature_banks, forward, knn_classify

STRIDE = Pairing(pairs=((1, 3), (2, 4)))


def clean_dataset(n: int = 400, seed: int = 0) -> Dataset:
    return generate_synthetic(n, 2, 0.0, 100.0, feature_noise_std=0.05, seed=seed)


def make_ensemble(
    ds: Dataset,
    seed: int = 0,
    objective: str = "classify",
    hidden_dims: tuple[int, ...] = (16, 8),
    activation: str = "relu",
):
    scheme = fragment_labels(ds, 4)
    ens = init_ensemble(
        STRIDE,
        input_dim=ds.d,
        hidden_dims=hidden_dims,
        activation=activation,
        seed=seed,
        objective=objective,
        label_lo=ds.label_min,
        label_range=ds.label_range,
    )
    return ens, scheme


class TestEnsembleInit:
    def test_one_expert_per_pair(self) -> None:
        ds = clean_dataset()
        ens, _ = make_ensemble(ds)
        assert set(ens.experts) == {(1, 3), (2, 4)}
        for net in ens.experts.values():
            assert net.spec.output_dim == 1

    def test_experts_get_distinct_seeds(self) -> None:
        ds = clean_dataset()
        ens, _ = make_ensemble(ds)
        w13 = ens.experts[(1, 3)].weights[0]
        w24 = ens.experts[(2, 4)].weights[0]
        assert not np.array_equal(w13, w24)


class TestTraining:
    def test_separated_fragments_reach_high_accuracy(self) -> None:
        ds = clean_dataset(n=400)
        ens, scheme = make_ensemble(ds)
        sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), ds.y)
        for epoch in range(50):
            train_experts_epoch(ens, ds, sets, lr=0.1, batch_size=32, seed=epoch)
        assignment = scheme.assign_many(ds.y)
        for pair in STRIDE.pairs:
            members = np.flatnonzero(np.isin(assignment, pair))
            hits = sum(
                classify_pair(ens, pair, ds.x[idx]) == assignment[idx]
                for idx in members
            )
            assert hits / len(members) > 0.95

    def test_lr_zero_keeps_losses_constant(self) -> None:
        ds = clean_dataset(n=200)
        ens, scheme = make_ensemble(ds)
        sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), ds.y)
        first = train_experts_epoch(ens, ds, sets, lr=0.0, batch_size=64, seed=1)
        second = train_experts_epoch(ens, ds, sets, lr=0.0, batch_size=64, seed=2)
        for pair in STRIDE.pairs:
            assert first[pair] == pytest.approx(second[pair], abs=1e-12)

    def test_identical_seeds_identical_trajectories(self) -> None:
        ds = clean_dataset(n=200)
        trajectories = []
        for _ in range(2):
            ens, scheme = make_ensemble(ds, seed=5)
            sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), ds.y)
            trajectories.append(
                [train_experts_epoch(ens, ds, sets, 0.1, 32, seed=e) for e in range(5)]
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
            ens, _ = make_ensemble(ds)
        js = JitteredScheme(base=scheme, delta=0.0)
        with pytest.raises(ExpertError, match=r"\(1, 3\)"):
            pair_sets(ens.pairing, js, ds.y)

    def test_overlap_duplicates_with_both_labels(self) -> None:
        # Adjacent pair plus a wide jitter buffer: samples near the shared
        # boundary must appear once per fragment in the pair's training set.
        ds = clean_dataset(n=300)
        scheme = fragment_labels(ds, 4)
        js = JitteredScheme(base=scheme, delta=4.0)
        rows, tags = pair_sets(Pairing(pairs=((1, 2), (3, 4))), js, ds.y)[(1, 2)]
        duplicated = [r for r in np.unique(rows) if (rows == r).sum() == 2]
        assert duplicated
        for r in duplicated:
            assert sorted(tags[rows == r]) == [1, 2]


class TestClassifyPair:
    def _forced_logit_ensemble(self, ds: Dataset, logit: float):
        ens, scheme = make_ensemble(ds)
        net = ens.experts[(1, 3)]
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = logit
        return ens

    def test_positive_logit_lower_fragment(self) -> None:
        ds = clean_dataset(50)
        ens = self._forced_logit_ensemble(ds, 3.2)
        assert classify_pair(ens, (1, 3), ds.x[0]) == 1

    def test_negative_logit_higher_fragment(self) -> None:
        ds = clean_dataset(50)
        ens = self._forced_logit_ensemble(ds, -0.1)
        assert classify_pair(ens, (1, 3), ds.x[0]) == 3

    def test_zero_logit_goes_to_higher_index(self) -> None:
        ds = clean_dataset(50)
        ens = self._forced_logit_ensemble(ds, 0.0)
        assert classify_pair(ens, (1, 3), ds.x[0]) == 3

    def test_unknown_pair(self) -> None:
        ds = clean_dataset(50)
        ens, _ = make_ensemble(ds)
        with pytest.raises(ExpertError):
            classify_pair(ens, (1, 2), ds.x[0])


class TestFeatureBank:
    """A pair's bank: the epoch's expert pass at the rows of its pair set."""

    def test_partition_without_jitter(self) -> None:
        ds = clean_dataset(n=100)
        ens, scheme = make_ensemble(ds)
        js = JitteredScheme(base=scheme, delta=0.0)
        banks = feature_banks(build_feature_bank(ens, ds), pair_sets(STRIDE, js, ds.y))
        total = sum(len(banks[pair][0]) for pair in STRIDE.pairs)
        assert total == 100
        for pair in STRIDE.pairs:
            assert set(np.unique(banks[pair][1])) <= set(pair)

    def test_jitter_overlap_adds_entries(self) -> None:
        ds = clean_dataset(n=300)
        ens, scheme = make_ensemble(ds)
        passes = build_feature_bank(ens, ds)
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
        ens, scheme = make_ensemble(ds)
        js = JitteredScheme(base=scheme, delta=0.0)
        banks = feature_banks(build_feature_bank(ens, ds), pair_sets(STRIDE, js, ds.y))
        assignment = scheme.assign_many(ds.y)
        pair = (1, 3)
        member_rows = np.flatnonzero(np.isin(assignment, pair))
        for row_pos, ds_idx in enumerate(member_rows):
            _, feats = forward(ens.experts[pair], ds.x[ds_idx])
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
        ens, scheme = make_ensemble(ds, hidden_dims=hidden_dims, activation=activation)
        js = JitteredScheme(base=scheme, delta=5.0)
        sets = pair_sets(STRIDE, js, ds.y)
        train_experts_epoch(ens, ds, sets, lr=0.1, batch_size=32, seed=0)
        passes = build_feature_bank(ens, ds)
        banks = feature_banks(passes, sets)
        rows, frags = js.membership_rows(ds.y)
        for pair in STRIDE.pairs:
            out, feats = forward_batch(ens.experts[pair], ds.x)
            keep = np.isin(frags, pair)
            assert np.array_equal(banks[pair][0], feats[rows[keep]])
            assert np.array_equal(banks[pair][1], frags[keep])
            assert np.array_equal(passes[pair][1], feats)
            assert np.array_equal(passes[pair][0], out[:, 0])


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
        tags = np.array([1, 3, 3, 3, 1])
        # All four near entries tie at distance zero; K=1 must take index 0.
        assert knn_classify(feats, tags, np.array([1.0]), 1, (1, 3)) == 1

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


def dense_votes(feats: np.ndarray, tags: np.ndarray, pair, queries: np.ndarray, k: int):
    """The dense kernel alone, every query against the whole bank in bank order."""
    i, j = pair
    n, m = len(queries), len(feats)
    floats = max(experts_mod._BUFFER_FLOATS, m)
    buffers = (np.empty(floats), np.empty(floats), np.empty(floats, dtype=bool))
    out = (np.empty(n, dtype=np.int32), np.empty(n), np.empty(n, dtype=np.int32))
    experts_mod._count_nearest(
        queries, (queries * queries).sum(axis=1), feats, (feats * feats).sum(axis=1),
        tags == i, k, buffers, out,
    )
    return np.where(2 * out[0] > k, i, j)


class TestKnnOracle:
    PAIR = (2, 5)
    BANK = 601  # odd, so K equal to the bank size is kept as is

    def _tie_heavy(self, seed: int, integer: bool):
        """A bank of few distinct rows (duplicated rows and tags) and queries on them."""
        rng = np.random.default_rng(seed)
        if integer:
            feats = rng.integers(-2, 3, size=(self.BANK, 3)).astype(np.float64)
        else:
            distinct = rng.normal(size=(40, 3))
            feats = distinct[rng.integers(0, 40, self.BANK)]
        tags = rng.choice(self.PAIR, size=self.BANK)
        return rng, feats, tags

    def _queries(self, rng, feats, n: int, integer: bool) -> np.ndarray:
        on_bank = feats[rng.integers(0, len(feats), n - n // 2)]
        if integer:
            off_bank = rng.integers(-3, 4, size=(n // 2, feats.shape[1])).astype(np.float64)
        else:
            off_bank = rng.normal(size=(n // 2, feats.shape[1]))
        return np.concatenate([on_bank, off_bank])

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("K", [1, 3, 5, 7])
    def test_ties_match_stable_sort(self, integer: bool, K: int) -> None:
        rng, feats, tags = self._tie_heavy(K, integer)
        queries = self._queries(rng, feats, 500, integer)
        assert straddling_rows(feats, queries, K) > 0
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


    @pytest.mark.parametrize("K", [1, 5])
    def test_run_bank_with_rows_under_both_tags(self, K: int) -> None:
        # An adjacent pairing's jitter puts rows near the shared boundary in
        # both fragments, so they sit in the bank twice, once under each tag
        # (38 and 43 rows here): ties at distance zero between different tags.
        ds = clean_dataset(n=390)
        adjacent = Pairing(pairs=((1, 2), (3, 4)))
        ens = init_ensemble(adjacent, input_dim=ds.d, hidden_dims=(16, 8),
                            activation="relu", seed=0)
        sets = pair_sets(adjacent, JitteredScheme(base=fragment_labels(ds, 4), delta=5.0), ds.y)
        train_experts_epoch(ens, ds, sets, lr=0.1, batch_size=32, seed=0)
        passes = build_feature_bank(ens, ds)
        for pair, (rows, tags) in sets.items():
            unique, counts = np.unique(rows, return_counts=True)
            twice = unique[counts == 2]
            assert len(twice) > 30 and counts.max() == 2
            assert all(set(tags[rows == row]) == set(pair) for row in twice)
            feats = passes[pair][1]
            got = knn_votes(feats[rows], tags, feats, K, pair)
            assert np.array_equal(got, knn_oracle(feats[rows], tags, pair, feats, K))


class TestKnnSweep:
    """The projection sweep against the stable-argsort oracle, where it prunes and where it cannot."""

    PAIR = (2, 5)

    def _traced_votes(self, feats, tags, queries, K, monkeypatch):
        """knn_votes, recording (queries, bank columns) of every kernel call."""
        calls = []
        kernel = experts_mod._count_nearest

        def counting(q, q_norms, f, *args):
            calls.append((q.copy(), len(f)))
            return kernel(q, q_norms, f, *args)

        monkeypatch.setattr(experts_mod, "_count_nearest", counting)
        return knn_votes(feats, tags, queries, K, self.PAIR), calls

    @pytest.mark.parametrize("h", [1, 8, 64])
    @pytest.mark.parametrize("K", [1, 5, 9])
    def test_line_bank_pruned_and_exact(self, h: int, K: int, monkeypatch) -> None:
        feats, tags, queries = line_bank(h * 10 + K, 800, 1600, h=h)
        got, calls = self._traced_votes(feats, tags, queries, K, monkeypatch)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))
        windowed = sum(len(q) * c for q, c in calls if c < len(feats))
        assert 0 < windowed < 0.3 * len(queries) * len(feats)

    def test_fallback_runs_on_few_rows_of_a_pruned_bank(self, monkeypatch) -> None:
        feats, tags, queries = line_bank(3, 900, 1600)
        got, calls = self._traced_votes(feats, tags, queries, 5, monkeypatch)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 5))
        whole_bank = sum(len(q) for q, c in calls if c == len(feats))
        assert experts_mod._FIRST_ROWS <= whole_bank <= experts_mod._FIRST_ROWS + 0.05 * 1600

    @pytest.mark.parametrize("K", [1, 5, 7])
    def test_isotropic_bank(self, K: int) -> None:
        rng = np.random.default_rng(K)
        feats, queries = rng.normal(size=(500, 8)), rng.normal(size=(900, 8))
        tags = rng.choice(self.PAIR, size=500)
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
        monkeypatch.setattr(experts_mod, "_WINDOW_REACH", reach)
        got = knn_votes(feats, tags, queries, K, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, K))

    def test_one_dense_call_per_vote(self, monkeypatch) -> None:
        # Triplicated bank rows on a line: queries on them see straddling ties,
        # which only the dense kernel settles, so some rows fail certification.
        rng = np.random.default_rng(15)
        points = rng.permutation(np.repeat(np.arange(120.0), 3))
        feats = points[:, None] * np.array((0.6, 0.8, 0.0))
        tags = rng.choice(self.PAIR, size=len(points))
        queries = rng.integers(0, 240, 900)[:, None] / 2.0 * np.array((0.6, 0.8, 0.0))
        assert straddling_rows(feats, queries, 5) > 0
        whole_bank = []
        kernel = experts_mod._count_nearest

        def counting(q, q_norms, f, *args):
            whole_bank.append(f is feats)
            return kernel(q, q_norms, f, *args)

        monkeypatch.setattr(experts_mod, "_count_nearest", counting)
        got = knn_votes(feats, tags, queries, 5, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 5))
        assert sum(whole_bank) == 1

    def test_query_off_the_line_falls_back(self, monkeypatch) -> None:
        feats, tags, queries = line_bank(5, 600, 1000, h=2)
        centre = feats.mean(axis=0)
        normal = np.array([-centre[1], centre[0]]) / np.linalg.norm(centre)
        # Projects into the middle of the bank but lies far from every row.
        queries[500] = far = centre + 3.0 * normal
        got, calls = self._traced_votes(feats, tags, queries, 5, monkeypatch)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 5))
        fallback, columns = calls[-1]
        assert columns == len(feats)
        assert np.all(fallback == far, axis=1).any()
        assert len(fallback) < 50

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries(self, bad: float) -> None:
        feats, tags, queries = line_bank(6, 400, 700)
        rows = [0, 350, 699]
        queries[rows, 1] = bad
        got = knn_votes(feats, tags, queries, 5, self.PAIR)
        finite = np.setdiff1d(np.arange(len(queries)), rows)
        assert np.array_equal(
            got[finite], knn_oracle(feats, tags, self.PAIR, queries[finite], 5)
        )
        assert np.array_equal(got, dense_votes(feats, tags, self.PAIR, queries, 5))

    def test_nan_bank_rows(self) -> None:
        feats, tags, queries = line_bank(7, 400, 700)
        feats[[3, 200], 0] = np.nan
        got = knn_votes(feats, tags, queries, 5, self.PAIR)
        assert np.array_equal(got, knn_oracle(feats, tags, self.PAIR, queries, 5))
        assert np.array_equal(got, dense_votes(feats, tags, self.PAIR, queries, 5))

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

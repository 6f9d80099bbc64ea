from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from fragpair.data import DataError, Dataset
from fragpair.fragments import (
    FragmentationError,
    FragmentationScheme,
    JitteredScheme,
    Pairing,
    fragment_edge_weights,
    fragment_labels,
    jitter_scheme,
    list_perfect_matchings,
    matching_score,
    max_jitter,
    select_contrastive_pairing,
)
from oracles import assign, brute_force_edge_weights, jittered_membership, membership_many, partner


def uniform_dataset(n: int = 4000, lo: float = 0.0, hi: float = 100.0, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    y = rng.uniform(lo, hi, n)
    y[0], y[1] = lo, hi  # pin the range exactly
    return Dataset(x=y[:, None].copy(), y=y)


def brute_force_best_matching(weights: np.ndarray):
    """Independent argmax-min scan applying the same tie-breaks."""
    best, best_score = None, (-np.inf, -np.inf)
    for matching in list_perfect_matchings(weights.shape[0]):
        score = matching_score(matching, weights)
        if score > best_score:
            best, best_score = matching, score
    return best


class TestFragmentLabels:
    def test_equal_split_boundaries(self) -> None:
        scheme = fragment_labels(uniform_dataset(), 4)
        assert np.allclose(scheme.boundaries, [0.0, 25.0, 50.0, 75.0, 100.0])
        widths = np.diff(scheme.boundaries)
        assert np.allclose(widths, widths[0], rtol=1e-9)

    def test_max_label_in_last_fragment(self) -> None:
        scheme = fragment_labels(uniform_dataset(), 4)
        assert assign(scheme, 100.0) == 4
        assert assign(scheme, 25.0) == 2  # interior boundaries are right-open

    def test_uniform_means(self) -> None:
        scheme = fragment_labels(uniform_dataset(n=20000), 4)
        assert np.allclose(scheme.means, [12.5, 37.5, 62.5, 87.5], atol=0.6)
        for f in range(1, 5):
            lo, hi = scheme.boundaries[f - 1], scheme.boundaries[f]
            assert lo <= scheme.means[f - 1] <= hi

    def test_odd_or_out_of_range_count_rejected(self) -> None:
        ds = uniform_dataset(100)
        for F in (3, 2, 14):
            with pytest.raises(FragmentationError):
                fragment_labels(ds, F)

    @pytest.mark.parametrize("y", [[np.nan, 3.0], [3.0, np.nan], [-1.0, 3.0], [3.0, 101.0]])
    def test_label_outside_the_range_or_nan_rejected(self, y) -> None:
        scheme = fragment_labels(uniform_dataset(), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FragmentationError, match="^label outside the fragmented range$"):
                scheme.assign_many(np.asarray(y))

    def test_degenerate_range_rejected(self) -> None:
        ds = Dataset(x=np.ones((3, 1)), y=np.full(3, 7.0))
        with pytest.raises(DataError, match="observed label range is degenerate"):
            fragment_labels(ds, 4)

    def test_empty_fragment_warns_and_uses_midpoint(self) -> None:
        y = np.array([1.0, 2.0, 99.0, 100.0, 1.5, 98.0])
        ds = Dataset(x=y[:, None].copy(), y=y)
        with pytest.warns(UserWarning, match="empty"):
            scheme = fragment_labels(ds, 4)
        assert scheme.counts[1] == 0
        lo, hi = scheme.boundaries[1], scheme.boundaries[2]
        assert scheme.means[1] == pytest.approx((lo + hi) / 2)


class TestEdgeWeights:
    def test_dense_fragments_match_brute_force(self) -> None:
        ds = uniform_dataset(n=3000)
        scheme = fragment_labels(ds, 4)
        weights = fragment_edge_weights(ds, scheme)
        assert np.array_equal(weights, brute_force_edge_weights(ds, scheme))
        assert weights[0, 1] == pytest.approx(0.0, abs=0.5)
        assert weights[0, 2] == pytest.approx(25.0, abs=0.5)
        assert weights[0, 3] == pytest.approx(50.0, abs=0.5)

    def test_diagonal_zero_and_symmetry(self) -> None:
        ds = uniform_dataset(500)
        weights = fragment_edge_weights(ds, fragment_labels(ds, 6))
        assert np.all(np.diag(weights) == 0)
        assert np.array_equal(weights, weights.T)

    def test_two_samples_single_pair_distance(self) -> None:
        y = np.array([10.0, 90.0])
        ds = Dataset(x=y[:, None].copy(), y=y)
        with pytest.warns(UserWarning):
            scheme = fragment_labels(ds, 4)
        weights = fragment_edge_weights(ds, scheme)
        assert weights[0, 3] == pytest.approx(80.0)
        assert np.array_equal(weights, brute_force_edge_weights(ds, scheme))


class TestMatchingEnumeration:
    def test_f4_exhaustive(self) -> None:
        matchings = list_perfect_matchings(4)
        assert matchings == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_f6_count(self) -> None:
        assert len(list_perfect_matchings(6)) == 15

    def test_f8_count_distinct_and_covering(self) -> None:
        def double_factorial(n: int) -> int:
            return 1 if n <= 1 else n * double_factorial(n - 2)

        matchings = list_perfect_matchings(8)
        assert len(matchings) == double_factorial(7) == 105
        assert len(set(matchings)) == 105
        for matching in matchings:
            covered = sorted(v for pair in matching for v in pair)
            assert covered == list(range(1, 9))

    def test_out_of_range(self) -> None:
        with pytest.raises(FragmentationError):
            list_perfect_matchings(14)


class TestContrastivePairing:
    def test_stride_pairing_f4(self) -> None:
        ds = uniform_dataset(n=3000)
        weights = fragment_edge_weights(ds, fragment_labels(ds, 4))
        assert select_contrastive_pairing(weights).pairs == ((1, 3), (2, 4))

    def test_stride_pairing_f6(self) -> None:
        ds = uniform_dataset(n=3000)
        weights = fragment_edge_weights(ds, fragment_labels(ds, 6))
        assert select_contrastive_pairing(weights).pairs == ((1, 4), (2, 5), (3, 6))

    def test_equal_weights_lexicographic_tie(self) -> None:
        weights = np.ones((4, 4))
        np.fill_diagonal(weights, 0.0)
        assert select_contrastive_pairing(weights).pairs == ((1, 2), (3, 4))

    @pytest.mark.parametrize("F", [4, 6, 8])
    def test_agrees_with_brute_force_on_random_matrices(self, F: int) -> None:
        rng = np.random.default_rng(F)
        for _ in range(30):
            raw = rng.random((F, F))
            weights = (raw + raw.T) / 2.0
            np.fill_diagonal(weights, 0.0)
            assert select_contrastive_pairing(weights).pairs == brute_force_best_matching(weights)

    def test_rejects_asymmetric_or_negative(self) -> None:
        bad = np.arange(16.0).reshape(4, 4)
        with pytest.raises(FragmentationError):
            select_contrastive_pairing(bad)
        negative = np.zeros((4, 4)) - 1.0
        with pytest.raises(FragmentationError):
            select_contrastive_pairing(negative)

    def test_monotone_under_any_own_edge_increase_f4(self) -> None:
        # For F=4 every edge belongs to exactly one matching, so raising any
        # selected edge can only widen the selected matching's lead.
        rng = np.random.default_rng(42)
        for _ in range(100):
            raw = rng.random((4, 4))
            weights = (raw + raw.T) / 2.0
            np.fill_diagonal(weights, 0.0)
            chosen = select_contrastive_pairing(weights)
            for (i, j) in chosen.pairs:
                bumped = weights.copy()
                bumped[i - 1, j - 1] += rng.random() * 5.0
                bumped[j - 1, i - 1] = bumped[i - 1, j - 1]
                assert select_contrastive_pairing(bumped).pairs == chosen.pairs

    @pytest.mark.parametrize("F", [6, 8])
    def test_monotone_under_non_minimum_edge_increase(self, F: int) -> None:
        # With F >= 6 an edge is shared by several matchings.  Raising the
        # selected matching's *minimum* edge can promote an overlapping rival
        # whose second-smallest edge is larger, so only non-minimum edges are
        # guaranteed to keep the selection stable.
        rng = np.random.default_rng(F * 7)
        for _ in range(50):
            raw = rng.random((F, F))
            weights = (raw + raw.T) / 2.0
            np.fill_diagonal(weights, 0.0)
            chosen = select_contrastive_pairing(weights)
            min_edge, _ = matching_score(chosen.pairs, weights)
            for (i, j) in chosen.pairs:
                if weights[i - 1, j - 1] == min_edge:
                    continue
                bumped = weights.copy()
                bumped[i - 1, j - 1] += rng.random() * 5.0
                bumped[j - 1, i - 1] = bumped[i - 1, j - 1]
                assert select_contrastive_pairing(bumped).pairs == chosen.pairs


class TestPairingType:
    def test_partner_is_fixed_point_free_involution(self) -> None:
        pairing = Pairing(pairs=((1, 3), (2, 4)))
        for f in range(1, 5):
            assert partner(pairing, partner(pairing, f)) == f
            assert partner(pairing, f) != f

    def test_rejects_incomplete_matching(self) -> None:
        with pytest.raises(FragmentationError):
            Pairing(pairs=((1, 2), (2, 3)))

    def test_json_round_trip(self) -> None:
        pairing = Pairing(pairs=((1, 4), (2, 5), (3, 6)))
        assert Pairing.from_json(pairing.to_json()) == pairing

    @pytest.mark.parametrize("entries", [[[1, 2, 2], [3, 4]], [[1, 2], [3]], [[1, 2], []]])
    def test_from_json_rejects_an_entry_not_of_two_fragments(self, entries) -> None:
        bad = next(entry for entry in entries if len(entry) != 2)
        with pytest.raises(FragmentationError, match=rf"^must be a list of \[i, j\] pairs of "
                           rf"integer fragment ids: {re.escape(repr(bad))} is not one$"):
            Pairing.from_json(entries)

    @pytest.mark.parametrize("entries, bad", [
        ([[True, 2], [3, 4]], [True, 2]),
        ([[1, 2], [3, 4.0]], [3, 4.0]),
        ([[1, 2], ["3", 4]], ["3", 4]),
        ([1, 2], 1),
        ("12", "12"),
    ], ids=["bool", "float", "string_id", "flat_list", "string"])
    def test_from_json_rejects_anything_but_integer_pairs(self, entries, bad) -> None:
        # A bool is an int to Python, but not a fragment id.
        with pytest.raises(FragmentationError, match=rf"^must be a list of \[i, j\] pairs of "
                           rf"integer fragment ids: {re.escape(repr(bad))} is not one$"):
            Pairing.from_json(entries)


class TestJitter:
    def _scheme(self) -> FragmentationScheme:
        return fragment_labels(uniform_dataset(n=2000), 4)

    def test_zero_jitter_keeps_base_membership(self) -> None:
        scheme = self._scheme()
        js = jitter_scheme(scheme, 0.0, seed=1, epoch=3)
        assert js.delta == 0.0
        for y in (0.0, 24.999, 25.0, 99.0, 100.0):
            assert jittered_membership(y, js) == (assign(scheme, y),)

    def test_max_admissible_jitter_f4(self) -> None:
        assert max_jitter(4) == pytest.approx(1.0 / 6.0)
        scheme = self._scheme()
        jitter_scheme(scheme, 1.0 / 6.0, seed=0, epoch=0)
        with pytest.raises(FragmentationError):
            jitter_scheme(scheme, 0.2, seed=0, epoch=0)

    def test_hand_computed_overlap(self) -> None:
        js = JitteredScheme(base=self._scheme(), delta=5.0)
        # Fragment 2 covers [25 - 5, 50 + 5) = [20, 55).
        assert jittered_membership(19.999, js) == (1,)
        assert jittered_membership(20.0, js) == (1, 2)
        assert jittered_membership(22.0, js) == (1, 2)
        assert jittered_membership(54.999, js) == (2, 3)
        assert jittered_membership(55.0, js) == (3,)

    def test_boundary_label_with_positive_shift_in_two_fragments(self) -> None:
        js = JitteredScheme(base=self._scheme(), delta=2.0)
        assert jittered_membership(25.0, js) == (1, 2)

    def test_draw_is_deterministic_and_within_range(self) -> None:
        scheme = self._scheme()
        a = jitter_scheme(scheme, 0.05, seed=5, epoch=7)
        b = jitter_scheme(scheme, 0.05, seed=5, epoch=7)
        c = jitter_scheme(scheme, 0.05, seed=5, epoch=8)
        assert a.delta == b.delta
        assert a.delta != c.delta
        assert 0.0 <= a.delta <= 0.05 * scheme.label_range

    def test_membership_fuzz_stays_adjacent(self) -> None:
        scheme = self._scheme()
        rng = np.random.default_rng(17)
        for _ in range(500):
            delta = rng.uniform(0.0, max_jitter(4) * scheme.label_range)
            js = JitteredScheme(base=scheme, delta=float(delta))
            y = float(rng.uniform(0.0, 100.0))
            members = jittered_membership(y, js)
            base = assign(scheme, y)
            assert members
            assert len(members) <= 2
            assert set(members) <= {base - 1, base, base + 1}
            assert base in members

    def test_membership_rows_matches_per_sample_expansion(self) -> None:
        scheme = self._scheme()
        rng = np.random.default_rng(23)
        y = rng.uniform(0.0, 100.0, 300)
        js = JitteredScheme(base=scheme, delta=6.0)
        rows, frags = js.membership_rows(y)
        expected = [
            (idx, f)
            for idx, members in enumerate(membership_many(js, y))
            for f in members
        ]
        assert list(zip(rows.tolist(), frags.tolist())) == expected


@pytest.mark.parametrize("weights, message", [
    (np.zeros(4), "weights must be a square matrix"),
    (np.zeros((4, 3)), "weights must be a square matrix"),
    (np.triu(np.ones((4, 4))), "weights must be symmetric"),
    (-np.ones((4, 4)), "weights must be non-negative"),
], ids=["vector", "not_square", "asymmetric", "negative"])
def test_pairing_weights_checked(weights, message) -> None:
    with pytest.raises(FragmentationError, match=f"^{message}$"):
        select_contrastive_pairing(weights)

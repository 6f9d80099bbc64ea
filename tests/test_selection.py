from __future__ import annotations

import json

import numpy as np
import pytest

from fragpair.data import generate_synthetic
from fragpair.experts import (
    build_feature_bank,
    init_ensemble,
    knn_votes,
    pair_sets,
    pred_winners,
    train_experts_epoch,
)
from fragpair.fragments import JitteredScheme, Pairing, fragment_labels
from fragpair.selection import (
    SelectionOutcome,
    SelectionText,
    bernoulli_select,
    neighborhood_gate,
    prior_rows,
    select_clean,
    self_agreement_matrix,
)
from oracles import (
    feature_banks,
    fragment_prior,
    neighborhood_agreement,
    selection_probability,
    self_agreement_pred,
    self_agreement_regr,
    self_agreement_repr,
)

STRIDE = Pairing(pairs=((1, 3), (2, 4)))


def repr_winners(passes, sets, K: int) -> dict:
    """Every pair's K-NN vote on its own rows, as a run hands them to ``select_clean``."""
    banks = feature_banks(passes, sets)
    return {pair: knn_votes(*banks[pair], passes[pair][1], K, pair) for pair in banks}


def fixture_scheme():
    rng = np.random.default_rng(0)
    y = rng.uniform(0.0, 100.0, 4000)
    y[0], y[1] = 0.0, 100.0
    from fragpair.data import Dataset

    ds = Dataset(x=y[:, None].copy(), y=y)
    return ds, fragment_labels(ds, 4)


def forced_ensemble(ds, winners: dict) -> dict:
    """Zero-weight experts whose head bias pins the hard classification.

    ``winners`` maps each pair to the fragment every query must resolve to.
    """
    experts = init_ensemble(STRIDE, input_dim=ds.d, hidden_dims=(4,), activation="relu", seed=0)
    for pair, winner in winners.items():
        net = experts[pair]
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = 5.0 if winner == pair[0] else -5.0
    return experts


class TestFragmentPrior:
    def test_two_fragment_midpoint_symmetry(self) -> None:
        rho = prior_rows(np.array([50.0]), np.array([25.0, 75.0]), 100.0)[0]
        assert rho == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_exact_mean_dominates(self) -> None:
        _, scheme = fixture_scheme()
        for f in range(1, 5):
            rho = fragment_prior(float(scheme.means[f - 1]), scheme)
            assert rho.argmax() == f - 1
            assert rho[f - 1] > max(np.delete(rho, f - 1))

    def test_hand_softmax_oracle(self) -> None:
        means = np.array([12.5, 37.5, 62.5, 87.5])
        gate = np.array([100.0 / 7.5, 100.0 / 17.5, 100.0 / 42.5, 100.0 / 67.5])
        expected = np.exp(gate - gate.max())
        expected /= expected.sum()
        rho = prior_rows(np.array([20.0]), means, 100.0)[0]
        assert rho == pytest.approx(expected, abs=1e-12)
        assert rho.sum() == pytest.approx(1.0, abs=1e-12)
        assert rho[0] > rho[1] > rho[2] > rho[3]

    def test_random_priors_sum_to_one_with_nearest_mean_argmax(self) -> None:
        rng = np.random.default_rng(9)
        for _ in range(200):
            F = int(rng.choice([4, 6, 8]))
            means = np.sort(rng.uniform(0.0, 100.0, F))
            y = rng.uniform(0.0, 100.0)
            rho = prior_rows(np.array([y]), means, 100.0)[0]
            assert abs(rho.sum() - 1.0) < 1e-12
            assert rho.argmax() == np.abs(means - y).argmin()

    def test_out_of_range_label_rejected(self) -> None:
        _, scheme = fixture_scheme()
        with pytest.raises(ValueError):
            fragment_prior(101.0, scheme)


class TestSelfAgreements:
    def test_pred_agreement_follows_expert(self) -> None:
        ds, _ = fixture_scheme()
        experts = forced_ensemble(ds, {(1, 3): 1, (2, 4): 4})
        x = ds.x[0]
        assert self_agreement_pred(x, 1, experts, STRIDE) == 1
        assert self_agreement_pred(x, 3, experts, STRIDE) == 0
        assert self_agreement_pred(x, 4, experts, STRIDE) == 1
        assert self_agreement_pred(x, 2, experts, STRIDE) == 0

    def test_repr_agreement_exact_bank_hit(self) -> None:
        ds, _ = fixture_scheme()
        experts = forced_ensemble(ds, {(1, 3): 1, (2, 4): 2})
        # Zeroed experts map every input to the zero feature vector, so feed
        # the bank distinct hand-built features instead.
        bank = {(1, 3): (np.array([[0.0, 0.0, 0.0, 0.0], [9.0, 9.0, 9.0, 9.0]]), np.array([1, 3]))}
        assert self_agreement_repr(ds.x[0], 1, experts, STRIDE, bank, K=1) == 1
        assert self_agreement_repr(ds.x[0], 3, experts, STRIDE, bank, K=1) == 0

    def test_repr_agreement_all_neighbors_partner(self) -> None:
        ds, _ = fixture_scheme()
        experts = forced_ensemble(ds, {(1, 3): 1, (2, 4): 2})
        bank = {(1, 3): (np.zeros((5, 4)), np.full(5, 3))}
        assert self_agreement_repr(ds.x[0], 1, experts, STRIDE, bank, K=3) == 0

    def test_regr_agreement_exact_mean_and_midpoint(self) -> None:
        from fragpair.fragments import FragmentationScheme

        ds, _ = fixture_scheme()
        # Binary-exact means so the rescaled output can tie exactly.
        scheme = FragmentationScheme(
            boundaries=np.array([0.0, 25.0, 50.0, 75.0, 100.0]),
            means=np.array([12.5, 37.5, 62.5, 87.5]),
            counts=np.array([1, 1, 1, 1]),
        )
        experts = init_ensemble(STRIDE, input_dim=ds.d, hidden_dims=(4,), activation="relu", seed=0)
        net = experts[(1, 3)]
        for W in net.weights:
            W[:] = 0.0
        # Output lands exactly on fragment 1's mean label.
        net.biases[-1][:] = 0.125
        assert self_agreement_regr(ds.x[0], 1, experts, STRIDE, scheme) == 1
        assert self_agreement_regr(ds.x[0], 3, experts, STRIDE, scheme) == 0
        # Midpoint of the two means: strict inequality fails on both sides.
        net.biases[-1][:] = 0.375
        assert self_agreement_regr(ds.x[0], 1, experts, STRIDE, scheme) == 0
        assert self_agreement_regr(ds.x[0], 3, experts, STRIDE, scheme) == 0


class TestNeighborhoodAgreement:
    def test_right_neighbor_rescues_boundary_fragment(self) -> None:
        assert neighborhood_agreement(1, np.array([1, 1, 0, 0])) == 1

    def test_lone_disagreeing_neighbor_blocks(self) -> None:
        assert neighborhood_agreement(1, np.array([1, 0, 0, 0])) == 0

    def test_zero_self_agreement_wins_regardless(self) -> None:
        assert neighborhood_agreement(2, np.array([1, 0, 1, 1])) == 0

    def test_interior_fragment_either_side(self) -> None:
        assert neighborhood_agreement(3, np.array([0, 1, 1, 0])) == 1
        assert neighborhood_agreement(3, np.array([0, 0, 1, 1])) == 1
        assert neighborhood_agreement(3, np.array([0, 0, 1, 0])) == 0

    def test_gate_matrix_matches_scalar_rule(self) -> None:
        rng = np.random.default_rng(3)
        self_m = (rng.random((50, 6)) > 0.5).astype(float)
        gate = neighborhood_gate(self_m)
        for row in range(50):
            for f in range(1, 7):
                assert gate[row, f - 1] == neighborhood_agreement(f, self_m[row])


class TestVotesNameTheirPairs:
    """The pairs a vote dict names are the pairs it is read at, in any order."""

    @staticmethod
    def adjacent_votes(n: int, seed: int) -> dict:
        # The adjacent pairing, its pairs inserted out of order.
        rng = np.random.default_rng(seed)
        return {pair: rng.choice([*pair, 0], n) for pair in ((3, 4), (1, 2))}

    def test_each_pair_fills_its_own_two_columns(self) -> None:
        votes = self.adjacent_votes(200, seed=1)
        matrix = self_agreement_matrix(votes, 4)
        for (i, j), winner in votes.items():
            assert np.array_equal(matrix[:, i - 1], winner == i)
            assert np.array_equal(matrix[:, j - 1], winner == j)
        # Every column holds both agreement and disagreement.
        assert np.all(matrix.min(axis=0) == 0.0) and np.all(matrix.max(axis=0) == 1.0)

    def test_select_clean_ignores_insertion_order(self) -> None:
        ds, scheme = fixture_scheme()
        pred, repr_ = self.adjacent_votes(ds.n, seed=2), self.adjacent_votes(ds.n, seed=3)
        one = select_clean(ds, scheme, pred, repr_, seed=0, epoch=1)
        two = select_clean(ds, scheme, dict(reversed(pred.items())), dict(reversed(repr_.items())),
                           seed=0, epoch=1)
        for field in ("p_pred", "p_repr", "chosen_pred", "chosen_repr"):
            assert np.array_equal(getattr(one, field), getattr(two, field))
        assert 0 < len(one.selected_union) < ds.n


class TestSelectionProbability:
    def test_all_agreements_one_gives_probability_one(self) -> None:
        rho = prior_rows(np.array([20.0]), np.array([12.5, 37.5, 62.5, 87.5]), 100.0)
        alpha = neighborhood_gate(np.ones((1, 4)))
        assert float((rho * alpha).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_all_agreements_zero_gives_probability_zero(self) -> None:
        rho = prior_rows(np.array([20.0]), np.array([12.5, 37.5, 62.5, 87.5]), 100.0)
        alpha = neighborhood_gate(np.zeros((1, 4)))
        assert float((rho * alpha).sum()) == 0.0

    def test_single_live_fragment_equals_its_prior(self) -> None:
        ds, scheme = fixture_scheme()
        # Experts vote fragment 1 and fragment 2: alpha = [1, 1, 0, 0] after
        # gating, so p = rho_1 + rho_2 for the predictive variant.
        experts = forced_ensemble(ds, {(1, 3): 1, (2, 4): 2})
        y = 20.0
        p = selection_probability(ds.x[0], y, experts, STRIDE, "pred", scheme)
        rho = fragment_prior(y, scheme)
        assert p == pytest.approx(rho[0] + rho[1], abs=1e-12)

    def test_monotone_in_agreement_flips(self) -> None:
        rng = np.random.default_rng(8)
        means = np.array([12.5, 37.5, 62.5, 87.5])
        for _ in range(100):
            y = rng.uniform(0.0, 100.0)
            rho = prior_rows(np.array([y]), means, 100.0)
            alpha = (rng.random(4) > 0.5).astype(float)
            p_before = float((rho * neighborhood_gate(alpha[None, :])).sum())
            flip = int(rng.integers(0, 4))
            raised = alpha.copy()
            raised[flip] = 1.0
            p_after = float((rho * neighborhood_gate(raised[None, :])).sum())
            assert p_after >= p_before - 1e-15

    def test_probability_in_unit_interval(self) -> None:
        ds, scheme = fixture_scheme()
        experts = forced_ensemble(ds, {(1, 3): 3, (2, 4): 2})
        for y in (0.0, 13.0, 50.0, 99.0, 100.0):
            p = selection_probability(ds.x[0], y, experts, STRIDE, "pred", scheme)
            assert 0.0 <= p <= 1.0


class TestBernoulliSelection:
    def test_probability_one_selects_everything(self) -> None:
        outcome = bernoulli_select(np.ones(500), np.ones(500), seed=1, epoch=1)
        assert len(outcome.combine("pred_only")) == 500
        assert len(outcome.selected_union) == 500

    def test_probability_zero_selects_nothing(self) -> None:
        outcome = bernoulli_select(np.zeros(500), np.zeros(500), seed=1, epoch=1)
        assert len(outcome.selected_union) == 0

    def test_half_probability_concentrates(self) -> None:
        p = np.full(10000, 0.5)
        outcome = bernoulli_select(p, p, seed=3, epoch=1)
        rate = len(outcome.combine("pred_only")) / 10000
        assert 0.48 <= rate <= 0.52

    def test_deterministic_per_seed_epoch(self) -> None:
        p = np.full(100, 0.5)
        a = bernoulli_select(p, p, seed=4, epoch=2)
        b = bernoulli_select(p, p, seed=4, epoch=2)
        c = bernoulli_select(p, p, seed=4, epoch=3)
        assert np.array_equal(a.chosen_pred, b.chosen_pred)
        assert not np.array_equal(a.chosen_pred, c.chosen_pred)

    def test_union_is_exactly_pred_or_repr(self) -> None:
        rng = np.random.default_rng(6)
        outcome = bernoulli_select(rng.random(300), rng.random(300), seed=0, epoch=5)
        expected = np.union1d(outcome.combine("pred_only"), outcome.combine("repr_only"))
        assert np.array_equal(outcome.selected_union, expected)
        combined = set(outcome.combine("pred_only")) | set(outcome.combine("repr_only"))
        assert combined == set(outcome.combine("union"))
        assert set(outcome.combine("intersection")) == set(
            outcome.combine("pred_only")
        ) & set(outcome.combine("repr_only"))


class TestSelectCleanEndToEnd:
    def test_trained_experts_rank_clean_above_corrupted(self) -> None:
        from fragpair.data import inject_symmetric_noise

        clean = generate_synthetic(600, 2, 0.0, 100.0, 0.05, seed=2)
        noisy = inject_symmetric_noise(clean, 0.4, seed=3)
        scheme = fragment_labels(noisy, 4)
        experts = init_ensemble(STRIDE, input_dim=2, hidden_dims=(16, 8), activation="relu", seed=1)
        sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), noisy.y)
        for epoch in range(40):
            train_experts_epoch(experts, noisy, sets, None, lr=0.1, batch_size=32, seed=epoch)
        passes = build_feature_bank(experts, noisy)
        outcome = select_clean(noisy, scheme, pred_winners(scheme, passes, False),
                               repr_winners(passes, sets, 5), seed=0, epoch=9)
        corrupted = noisy.y != noisy.y_gt
        assert outcome.p_pred[~corrupted].mean() > outcome.p_pred[corrupted].mean() + 0.2
        assert outcome.p_repr[~corrupted].mean() > outcome.p_repr[corrupted].mean() + 0.2

    def test_near_perfect_expert_agreement_on_clean_data(self) -> None:
        ds = generate_synthetic(500, 2, 0.0, 100.0, 0.05, seed=4)
        scheme = fragment_labels(ds, 4)
        experts = init_ensemble(STRIDE, input_dim=2, hidden_dims=(16, 8), activation="relu", seed=1)
        sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=0.0), ds.y)
        for epoch in range(50):
            train_experts_epoch(experts, ds, sets, None, lr=0.1, batch_size=32, seed=epoch)
        assignment = scheme.assign_many(ds.y)
        agreements = [
            self_agreement_pred(ds.x[i], int(assignment[i]), experts, STRIDE) for i in range(ds.n)
        ]
        assert np.mean(agreements) > 0.9

    def test_swapped_votes_swap_probabilities(self) -> None:
        ds, scheme = fixture_scheme()
        rng = np.random.default_rng(3)
        a, b = ({pair: rng.choice([*pair, 0], ds.n) for pair in STRIDE.pairs} for _ in range(2))
        one = select_clean(ds, scheme, a, b, seed=0, epoch=1)
        two = select_clean(ds, scheme, b, a, seed=0, epoch=1)
        assert not np.array_equal(one.p_pred, one.p_repr)
        assert np.array_equal(one.p_pred, two.p_repr)
        assert np.array_equal(one.p_repr, two.p_pred)

    def test_records_carry_ground_truth(self) -> None:
        ds = generate_synthetic(20, 2, 0.0, 10.0, 0.1, seed=5)
        outcome = SelectionOutcome(
            p_pred=np.linspace(0, 1, 20),
            p_repr=np.linspace(1, 0, 20),
            chosen_pred=np.zeros(20, dtype=bool),
            chosen_repr=np.ones(20, dtype=bool),
        )
        rows = outcome.records(ds)
        assert rows[3]["index"] == 3
        assert rows[3]["y_gt"] == ds.y_gt[3]
        assert rows[3]["chosen_repr"] is True


class TestVectorizedMatchesScalarRules:
    """``select_clean`` row by row against the scalar rules composed one
    sample at a time: the prior times the gated self-agreements."""

    # The vectorized sum and the scalar dot product add at most four
    # non-negative terms of a total <= 1 in different orders.
    TOL = 4 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("regress", [False, True], ids=["classify", "regress"])
    def test_probabilities_match_row_by_row(self, regress) -> None:
        from fragpair.data import inject_symmetric_noise

        ds = inject_symmetric_noise(
            generate_synthetic(160, 2, 0.0, 100.0, 0.05, seed=7), 0.3, seed=8
        )
        scheme = fragment_labels(ds, 4)
        experts = init_ensemble(STRIDE, input_dim=2, hidden_dims=(8, 4), activation="relu", seed=2)
        sets = pair_sets(STRIDE, JitteredScheme(base=scheme, delta=4.0), ds.y)
        # A run's regression experts regress its labels scaled over their range.
        labels = (ds.y - ds.label_min) / ds.label_range if regress else None
        for epoch in range(5):
            train_experts_epoch(experts, ds, sets, labels, lr=0.1, batch_size=16, seed=epoch)
        passes = build_feature_bank(experts, ds)
        banks = feature_banks(passes, sets)
        # The matrix's "pred" vote follows the experts' objective; the scalar
        # oracle names the two predictive votes apart.
        if not regress:
            variant = "pred"
            pred = lambda x, f: self_agreement_pred(x, f, experts, STRIDE)  # noqa: E731
        else:
            variant = "regr"
            pred = lambda x, f: self_agreement_regr(x, f, experts, STRIDE, scheme)  # noqa: E731
        repr_ = lambda x, f: self_agreement_repr(x, f, experts, STRIDE, banks, 5)  # noqa: E731
        winners = {"pred": pred_winners(scheme, passes, regress),
                   "repr": repr_winners(passes, sets, 5)}
        outcome = select_clean(ds, scheme, winners["pred"], winners["repr"], seed=0, epoch=1)
        gates = {
            k: neighborhood_gate(self_agreement_matrix(winners[k], scheme.num_fragments))
            for k in ("pred", "repr")
        }
        fragments = range(1, 5)
        for row in range(ds.n):
            x, y = ds.x[row], float(ds.y[row])
            rho = fragment_prior(y, scheme)
            for k, oracle, agrees, p in (
                ("pred", variant, pred, outcome.p_pred),
                ("repr", "repr", repr_, outcome.p_repr),
            ):
                votes = [agrees(x, f) for f in fragments]
                alpha = np.array([neighborhood_agreement(f, votes) for f in fragments])
                assert np.array_equal(gates[k][row], alpha)
                assert p[row] == pytest.approx(float(rho @ alpha), rel=0, abs=self.TOL)
                scalar = selection_probability(x, y, experts, STRIDE, oracle, scheme, banks, K=5)
                assert scalar == float(rho @ alpha)
        # Both vote sources vary across rows, so the comparison is not vacuous.
        assert len(np.unique(outcome.p_pred)) > 2
        assert len(np.unique(outcome.p_repr)) > 2


class TestSelectionJsonl:
    PROBABILITIES = [0.0, 1.0, 5e-324, 1e-7, 0.1 + 0.2, 1.0 - 2.0**-53]
    LABELS = [-0.0, 3.0, -12.5, 1e-5, 1e16]

    @staticmethod
    def oracle(outcome: SelectionOutcome, ds) -> str:
        return "".join(json.dumps(r) + "\n" for r in outcome.records(ds))

    @pytest.mark.parametrize("with_gt", [True, False])
    def test_byte_identical_to_json_dumps_of_records(self, with_gt) -> None:
        from fragpair.data import Dataset

        n = len(self.PROBABILITIES) * len(self.LABELS)
        y = np.resize(self.LABELS, n)
        ds = Dataset(
            x=np.zeros((n, 1)), y=y, y_gt=np.roll(y[::-1], 1) if with_gt else None
        )
        p = np.repeat(self.PROBABILITIES, len(self.LABELS))
        outcome = SelectionOutcome(
            p_pred=p,
            p_repr=p[::-1].copy(),
            chosen_pred=np.arange(n) % 2 == 0,
            chosen_repr=np.arange(n) % 3 == 0,
        )
        text = SelectionText(ds).text(outcome)
        assert text == self.oracle(outcome, ds)
        assert ('"y_gt"' in text) is with_gt

    def test_random_outcome_matches(self) -> None:
        rng = np.random.default_rng(3)
        ds = generate_synthetic(300, 2, -50.0, 50.0, 0.1, seed=6)
        outcome = bernoulli_select(rng.random(ds.n), rng.random(ds.n) ** 9, seed=1, epoch=2)
        assert SelectionText(ds).text(outcome) == self.oracle(outcome, ds)

    @pytest.mark.parametrize("with_gt", [True, False])
    def test_consecutive_epochs(self, with_gt) -> None:
        # Each epoch some rows keep their value, some change, and some return
        # to their value of two epochs back; 0.0 and -0.0 swap places.
        from fragpair.data import Dataset

        clean = generate_synthetic(240, 2, -50.0, 50.0, 0.1, seed=7)
        ds = Dataset(x=clean.x, y=clean.y, y_gt=clean.y[::-1].copy() if with_gt else None)
        rng = np.random.default_rng(8)
        choices = np.array(self.PROBABILITIES + [-0.0, 0.5, 0.25])
        formatter = SelectionText(ds)
        history = [rng.choice(choices, size=(2, ds.n)), rng.random((2, ds.n))]
        for epoch in range(1, 9):
            previous, before = history[-1], history[-2]
            fresh = rng.random((2, ds.n))
            fresh[:, ::4] = 0.0 if epoch % 2 else -0.0
            which = rng.integers(0, 3, size=(2, ds.n))
            p = np.where(which == 0, previous, np.where(which == 1, before, fresh))
            history.append(p)
            outcome = bernoulli_select(p[0].copy(), p[1].copy(), seed=2, epoch=epoch)
            lines = formatter.text(outcome).splitlines()
            assert lines == [json.dumps(r) for r in outcome.records(ds)]


@pytest.mark.parametrize("how", ["both", "Union", ""])
def test_unknown_combination_rejected(how) -> None:
    outcome = bernoulli_select(np.full(4, 0.5), np.full(4, 0.5), seed=0, epoch=1)
    with pytest.raises(ValueError, match=f"^unknown selection combination {how!r}$"):
        outcome.combine(how)

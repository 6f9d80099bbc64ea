"""Property tests of jittered membership, the per-pair training sets, the
fragment edge weights, the max-min pairing and the neighborhood gate against
their scalar and brute-force oracles, of the fragment prior's invariants, and
of a run's picks under an affine change of the label range."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import fragpair.pipeline
from fragpair.config import ExperimentConfig
from fragpair.data import Dataset
from fragpair.experts import ExpertError, pair_sets
from fragpair.fragments import (
    MAX_FRAGMENTS,
    MIN_FRAGMENTS,
    FragmentationScheme,
    JitteredScheme,
    Pairing,
    fragment_edge_weights,
    fragment_labels,
    list_perfect_matchings,
    max_jitter,
    select_contrastive_pairing,
)
from fragpair.pipeline import run_experiment
from fragpair.selection import neighborhood_gate, prior_rows, select_clean
from oracles import brute_force_edge_weights, jittered_membership, neighborhood_agreement

MATCHINGS = {F: list_perfect_matchings(F) for F in (4, 6, 8)}


@st.composite
def jittered_labels(draw, counts=range(MIN_FRAGMENTS, MAX_FRAGMENTS + 1, 2)):
    """A jittered equal-width scheme, its shift anywhere in [0, max_jitter(F)]
    of the range, and labels in range: random ones, the boundaries and the
    jittered coverage edges."""
    F = draw(st.sampled_from(counts))
    lo = draw(st.floats(-1e3, 1e3))
    hi = lo + draw(st.floats(1e-3, 1e3))
    boundaries = np.linspace(lo, hi, F + 1)
    scheme = FragmentationScheme(
        boundaries=boundaries,
        means=(boundaries[:-1] + boundaries[1:]) / 2,
        counts=np.zeros(F, dtype=np.intp),
    )
    delta = draw(st.floats(0.0, max_jitter(F))) * scheme.label_range
    js = JitteredScheme(base=scheme, delta=delta)
    edges = np.clip(np.concatenate([boundaries - delta, boundaries + delta]), lo, hi)
    special = st.sampled_from(np.concatenate([boundaries, edges]).tolist())
    y = draw(st.lists(st.floats(lo, hi) | special, min_size=1, max_size=60))
    return js, np.array(y)


@settings(max_examples=300, deadline=None)
@given(jittered_labels())
def test_membership_rows_equal_the_scalar_oracle_row_by_row(case) -> None:
    js, y = case
    rows, frags = js.membership_rows(y)
    expected = [
        (idx, f) for idx, v in enumerate(y.tolist()) for f in jittered_membership(v, js)
    ]
    assert list(zip(rows.tolist(), frags.tolist())) == expected


@settings(max_examples=200, deadline=None)
@given(jittered_labels(counts=sorted(MATCHINGS)), st.data())
def test_pair_sets_are_each_pairs_membership(case, data) -> None:
    js, y = case
    pairing = Pairing(pairs=data.draw(st.sampled_from(MATCHINGS[js.base.num_fragments])))
    members = [
        (idx, f) for idx, v in enumerate(y.tolist()) for f in jittered_membership(v, js)
    ]
    starved = [
        (i, j) for i, j in pairing.pairs
        if not any(f == i for _, f in members) or not any(f == j for _, f in members)
    ]
    if starved:
        i, j = starved[0]
        with pytest.raises(ExpertError, match=rf"\({i}, {j}\)"):
            pair_sets(pairing, js, y)
        return
    sets = pair_sets(pairing, js, y)
    assert list(sets) == list(pairing.pairs)
    for pair, (rows, tags) in sets.items():
        assert set(tags.tolist()) == set(pair)
        expected = [(idx, f) for idx, f in members if f in pair]
        assert list(zip(rows.tolist(), tags.tolist())) == expected


@st.composite
def fragmented_datasets(draw):
    """F fragments over a few labels on a coarse grid, so that tied labels and
    empty fragments are common, with the scheme fragment_labels makes of them."""
    F = draw(st.sampled_from(range(MIN_FRAGMENTS, MAX_FRAGMENTS + 1, 2)))
    lo = draw(st.floats(-1e3, 1e3))
    step = draw(st.floats(1e-3, 1e2))
    grid = st.integers(0, 2 * F).map(float) | st.floats(0.0, 2.0 * F)
    y = lo + step * np.array(draw(st.lists(grid, min_size=2, max_size=30)))
    assume(y.max() > y.min())
    ds = Dataset(x=y[:, None].copy(), y=y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty fragment warns
        return ds, fragment_labels(ds, F)


@settings(max_examples=100, deadline=None)
@given(fragmented_datasets())
def test_edge_weights_are_the_brute_force_scan_bit_for_bit(case) -> None:
    ds, scheme = case
    weights = fragment_edge_weights(ds, scheme)
    expected = brute_force_edge_weights(ds, scheme)
    assert np.array_equal(weights, expected)
    assert select_contrastive_pairing(weights) == select_contrastive_pairing(expected)


@st.composite
def weight_matrices(draw) -> np.ndarray:
    """Symmetric non-negative weights; small integers make tied minima and
    tied totals common."""
    F = draw(st.sampled_from(sorted(MATCHINGS)))
    values = st.integers(0, 3).map(float) | st.floats(0.0, 100.0)
    size = F * (F - 1) // 2
    weights = np.zeros((F, F))
    weights[np.triu_indices(F, 1)] = draw(st.lists(values, min_size=size, max_size=size))
    return weights + weights.T


@settings(max_examples=200, deadline=None)
@given(weight_matrices())
def test_pairing_is_the_brute_force_max_min_matching(weights) -> None:
    # Largest minimum edge, then largest total, then the first enumerated.
    best, best_key = None, None
    for matching in MATCHINGS[weights.shape[0]]:
        edges = [float(weights[i - 1, j - 1]) for i, j in matching]
        key = (min(edges), sum(edges))
        if best_key is None or key > best_key:
            best, best_key = matching, key
    assert select_contrastive_pairing(weights).pairs == best


@st.composite
def prior_cases(draw):
    """F equal-width fragments over a label range of 1e-3 to 1e6, one mean
    anywhere in each fragment, and labels in range: random ones, the means
    and both range ends.  Ranges starting at 0 reach subnormal distances."""
    F = draw(st.integers(4, 12))
    lo = draw(st.just(0.0) | st.floats(-1e6, 1e6))
    label_range = draw(st.floats(1e-3, 1e6))
    boundaries = np.linspace(lo, lo + label_range, F + 1)
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=F, max_size=F)))
    means = boundaries[:-1] + fractions * np.diff(boundaries)
    special = st.sampled_from(means.tolist() + [boundaries[0], boundaries[-1]])
    in_range = st.floats(boundaries[0], boundaries[-1])
    y = draw(st.lists(in_range | special, min_size=1, max_size=40))
    return np.array(y), means, label_range


@settings(max_examples=300, deadline=None)
@given(prior_cases())
def test_prior_rows_are_distributions_that_peak_at_the_nearest_mean(case) -> None:
    y, means, label_range = case
    rho = prior_rows(y, means, label_range)
    assert rho.shape == (len(y), len(means))
    assert np.isfinite(rho).all() and (rho >= 0).all()
    np.testing.assert_allclose(rho.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for k, v in enumerate(y.tolist()):
        dist = np.abs(v - means)
        nearest = np.flatnonzero(dist == dist.min())
        if len(nearest) == 1:
            assert rho[k, nearest[0]] == rho[k].max()
        alone = prior_rows(y[k : k + 1], means, label_range)[0]
        assert alone.tobytes() == rho[k].tobytes()


@settings(max_examples=300, deadline=None)
@given(arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)))
def test_neighborhood_gate_is_the_scalar_oracle_row_by_row(self_matrix) -> None:
    gate = neighborhood_gate(self_matrix)
    assert gate.dtype == np.float64
    expected = [
        [neighborhood_agreement(f, row) for f in range(1, len(row) + 1)]
        for row in self_matrix
    ]
    assert gate.tolist() == expected


def picks_and_history(monkeypatch, mode: str, noise: dict, lo: float, hi: float):
    """Every epoch's (chosen_pred, chosen_repr) and the records of a seed-0
    run, n=400 and 10 epochs, with labels drawn from [lo, hi]."""
    picks = []

    def recorded(*args, **kwargs):
        outcome = select_clean(*args, **kwargs)
        picks.append((outcome.chosen_pred, outcome.chosen_repr))
        return outcome

    monkeypatch.setattr(fragpair.pipeline, "select_clean", recorded)
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "synthetic", "n": 400, "d": 2, "label_lo": lo, "label_hi": hi,
                    "feature_noise_std": 0.1},
        "noise": noise, "epochs": 10, "seed": 0, "mode": mode,
    })
    return picks, run_experiment(cfg).history


# Each label, clean or noisy, is an affine image of the [0, 100] run's up to
# rounding, and the fragments and both nets' targets scale with the range.  So
# every pick is the same bit, and err and MAE as a share of the range agree to
# rounding.
@pytest.mark.parametrize("mode", ["select", "select_regr"])
@pytest.mark.parametrize("noise", [{"kind": "symmetric", "rate": 0.4},
                                   {"kind": "gaussian", "max_std_frac": 0.3}],
                         ids=["symmetric", "gaussian"])
def test_affine_label_range_leaves_the_picks_unchanged(monkeypatch, mode, noise) -> None:
    base_picks, base = picks_and_history(monkeypatch, mode, noise, 0.0, 100.0)
    assert len(base_picks) == 10
    for lo, hi in ((1000.0, 1200.0), (-1.0, 1.0)):
        picks, history = picks_and_history(monkeypatch, mode, noise, lo, hi)
        assert len(picks) == len(base_picks)
        for (pred, repr_), (base_pred, base_repr) in zip(picks, base_picks):
            assert np.array_equal(pred, base_pred) and np.array_equal(repr_, base_repr)
        for record, base_record in zip(history, base):
            assert record["n_selected"] == base_record["n_selected"]
            assert record["err"] == pytest.approx(base_record["err"], rel=1e-12, abs=0)
            assert record["mae"] / (hi - lo) == pytest.approx(base_record["mae"] / 100.0, rel=1e-12, abs=0)

"""Property tests of jittered membership, the per-pair training sets and the
max-min pairing against their scalar and brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragpair.experts import ExpertError, pair_sets
from fragpair.fragments import (
    MAX_FRAGMENTS,
    MIN_FRAGMENTS,
    FragmentationScheme,
    JitteredScheme,
    Pairing,
    list_perfect_matchings,
    max_jitter,
    select_contrastive_pairing,
)
from oracles import jittered_membership

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
    pairing = Pairing(pairs=data.draw(st.sampled_from(MATCHINGS[js.num_fragments])))
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

"""Label-range fragmentation, max-min contrastive pairing and boundary jittering."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import DataError, Dataset
from .rng import stream

MIN_FRAGMENTS = 4
MAX_FRAGMENTS = 12


class FragmentationError(ValueError):
    """Raised for invalid fragment counts, pairings or jitter parameters."""


def check_fragment_count(F: int) -> None:
    """The fragment-count rule: an even count within [MIN_FRAGMENTS, MAX_FRAGMENTS]."""
    if F % 2 != 0 or not MIN_FRAGMENTS <= F <= MAX_FRAGMENTS:
        raise FragmentationError(
            f"fragment count must be even and within [{MIN_FRAGMENTS}, {MAX_FRAGMENTS}], got {F}"
        )


@dataclass(frozen=True)
class FragmentationScheme:
    """Equal-width partition of the label range into fragments 1..F.

    Intervals are right-open except the last, which is right-closed, so every
    label in range maps to exactly one fragment.  ``means`` holds the mean
    observed label per fragment (interval midpoint for empty fragments).
    """

    boundaries: np.ndarray
    means: np.ndarray
    counts: np.ndarray

    @property
    def num_fragments(self) -> int:
        return len(self.boundaries) - 1

    @property
    def label_min(self) -> float:
        return float(self.boundaries[0])

    @property
    def label_max(self) -> float:
        return float(self.boundaries[-1])

    @property
    def label_range(self) -> float:
        return self.label_max - self.label_min

    @property
    def width(self) -> float:
        return self.label_range / self.num_fragments

    def assign_many(self, y: np.ndarray) -> np.ndarray:
        """Fragment id (1..F) per label; labels must lie within the range."""
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < self.label_min) or np.any(y > self.label_max):
            raise FragmentationError("label outside the fragmented range")
        idx = np.floor((y - self.label_min) / self.width).astype(np.intp)
        return np.clip(idx, 0, self.num_fragments - 1) + 1

    def to_json(self) -> dict:
        return {
            "boundaries": [float(b) for b in self.boundaries],
            "means": [float(m) for m in self.means],
            "counts": [int(c) for c in self.counts],
        }


def fragment_labels(ds: Dataset, F: int) -> FragmentationScheme:
    """Partition the observed label range of ``ds``, which must hold two label values
    or more, into F equal-width fragments."""
    check_fragment_count(F)
    if not ds.label_max > ds.label_min:
        raise DataError("observed label range is degenerate")
    boundaries = np.linspace(ds.label_min, ds.label_max, F + 1)
    scheme = FragmentationScheme(
        boundaries=boundaries,
        means=np.zeros(F),
        counts=np.zeros(F, dtype=np.intp),
    )
    assignment = scheme.assign_many(ds.y)
    means = np.empty(F)
    counts = np.empty(F, dtype=np.intp)
    for f in range(1, F + 1):
        members = ds.y[assignment == f]
        counts[f - 1] = len(members)
        if len(members) == 0:
            warnings.warn(f"fragment {f} is empty; using its interval midpoint as mean")
            means[f - 1] = 0.5 * (boundaries[f - 1] + boundaries[f])
        else:
            means[f - 1] = members.mean()
    return FragmentationScheme(boundaries=boundaries, means=means, counts=counts)


def fragment_edge_weights(ds: Dataset, scheme: FragmentationScheme) -> np.ndarray:
    """Symmetric matrix of closest-sample label distances between fragments.

    Fragments partition the label axis, so the closest pair between fragments
    i < j is always (max label of i, min label of j).  When either fragment is
    empty the gap between the fragments' intervals is used instead, keeping
    the matrix total.
    """
    F = scheme.num_fragments
    assignment = scheme.assign_many(ds.y)
    lo = np.full(F, np.nan)
    hi = np.full(F, np.nan)
    for f in range(1, F + 1):
        members = ds.y[assignment == f]
        if len(members):
            lo[f - 1], hi[f - 1] = members.min(), members.max()
    weights = np.zeros((F, F))
    for i in range(F):
        for j in range(i + 1, F):
            if np.isnan(hi[i]) or np.isnan(lo[j]):
                gap = scheme.boundaries[j] - scheme.boundaries[i + 1]
                weights[i, j] = max(0.0, float(gap))
            else:
                weights[i, j] = lo[j] - hi[i]
            weights[j, i] = weights[i, j]
    return weights


Matching = tuple[tuple[int, int], ...]


def list_perfect_matchings(F: int) -> list[Matching]:
    """All (F-1)!! perfect matchings of the complete graph on fragments 1..F.

    Each matching is a tuple of (i, j) pairs with i < j, sorted by first
    element; the list itself is in lexicographic order.
    """
    check_fragment_count(F)

    def extend(free: tuple[int, ...]) -> Iterable[Matching]:
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        for k, mate in enumerate(rest):
            remaining = rest[:k] + rest[k + 1 :]
            for tail in extend(remaining):
                yield ((first, mate),) + tail

    return list(extend(tuple(range(1, F + 1))))


@dataclass(frozen=True)
class Pairing:
    """A perfect matching of fragments 1..F into ordered pairs (i, j), i < j."""

    pairs: Matching

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for i, j in self.pairs:
            if i >= j:
                raise FragmentationError(f"pair ({i}, {j}) must be ordered i < j")
            seen.update((i, j))
        F = 2 * len(self.pairs)
        if seen != set(range(1, F + 1)):
            raise FragmentationError("pairs do not form a perfect matching of 1..F")

    @property
    def num_fragments(self) -> int:
        return 2 * len(self.pairs)

    def to_json(self) -> list[list[int]]:
        return [[i, j] for i, j in self.pairs]

    @staticmethod
    def from_json(pairs: Sequence[Sequence[int]]) -> "Pairing":
        canon = tuple(sorted((min(p), max(p)) for p in pairs))
        return Pairing(pairs=canon)


def matching_score(matching: Matching, weights: np.ndarray) -> tuple[float, float]:
    """(minimum edge weight, total weight) of a matching, the selection objective."""
    edges = [float(weights[i - 1, j - 1]) for i, j in matching]
    return min(edges), sum(edges)


def select_contrastive_pairing(weights: np.ndarray) -> Pairing:
    """Pick the perfect matching with the largest minimal edge weight.

    Ties break first by larger total weight, then by lexicographically
    smallest canonical form (the enumeration order).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise FragmentationError("weights must be a square matrix")
    if not np.allclose(weights, weights.T):
        raise FragmentationError("weights must be symmetric")
    if np.any(weights < 0):
        raise FragmentationError("weights must be non-negative")
    F = weights.shape[0]
    best: Matching | None = None
    best_score: tuple[float, float] = (-np.inf, -np.inf)
    for matching in list_perfect_matchings(F):
        score = matching_score(matching, weights)
        if score > best_score:
            best, best_score = matching, score
    assert best is not None
    return Pairing(pairs=best)


def max_jitter(F: int) -> float:
    """Upper bound of the admissible jitter buffer fraction."""
    return 1.0 / (2.0 * (F - 1))


def check_jitter(J: float, F: int) -> None:
    """The jitter-bound rule: a buffer fraction in [0, max_jitter(F)]."""
    if not 0.0 <= J <= max_jitter(F) + 1e-12:
        raise FragmentationError(
            f"jitter fraction must lie in [0, {max_jitter(F):.6g}] for F={F}, got {J}"
        )


@dataclass(frozen=True)
class JitteredScheme:
    """One epoch's expanded fragment coverage.

    Every interior boundary is pushed outward by ``delta`` (label units) on
    both sides, so fragment f covers ``[b[f-1] - delta, b[f] + delta)`` and
    adjacent fragments overlap by ``2 * delta``, save that a sample both
    neighbours reach joins only the nearer one (``membership_rows``).
    Exterior boundaries stay fixed; interval openness matches the base scheme
    so ``delta = 0`` reproduces base membership exactly.
    """

    base: FragmentationScheme
    delta: float

    @property
    def num_fragments(self) -> int:
        return self.base.num_fragments

    def membership_rows(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flattened membership as (sample row, fragment id) arrays.

        A sample appears once per fragment whose coverage contains it, ordered
        by row then fragment id.  A sample lies in its base fragment and in at
        most one neighbour: where an extreme jitter reaches both neighbours,
        only the one whose shared boundary is nearer is kept.
        """
        y = np.asarray(y, dtype=np.float64)
        base = self.base.assign_many(y)
        b = self.base.boundaries
        F = self.num_fragments
        in_left = (base > 1) & (y < b[base - 1] + self.delta)
        in_right = (base < F) & (y >= b[base] - self.delta)
        both = in_left & in_right
        nearer_left = (y - b[base - 1]) <= (b[base] - y)
        in_right &= ~(both & nearer_left)
        in_left &= ~(both & ~nearer_left)
        rows = np.concatenate(
            [np.flatnonzero(in_left), np.arange(len(y)), np.flatnonzero(in_right)]
        )
        frags = np.concatenate([base[in_left] - 1, base, base[in_right] + 1])
        order = np.lexsort((frags, rows))
        return rows[order], frags[order]


def jitter_scheme(
    scheme: FragmentationScheme, J: float, seed: int, epoch: int
) -> JitteredScheme:
    """Draw this epoch's shared boundary shift, uniform on [0, J * label range]."""
    check_jitter(J, scheme.num_fragments)
    if J == 0.0:
        return JitteredScheme(base=scheme, delta=0.0)
    delta = float(stream(seed, "jitter", epoch).uniform(0.0, J * scheme.label_range))
    return JitteredScheme(base=scheme, delta=delta)

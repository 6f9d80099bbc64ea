"""Deterministic seed derivation for independent random streams.

Every randomized operation in the package draws from its own stream, keyed by
a master seed plus a label path (e.g. ``("jitter", epoch)``).  Streams with
different labels are statistically independent, so the order in which
operations run cannot perturb unrelated draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, *labels: object) -> int:
    """Map (seed, label path) to a stable 64-bit stream key; the seed must be an integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed {seed!r}: must be an integer")
    text = repr((int(seed),) + tuple(labels)).encode()
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Counter-based generator for one (seed, label path) stream."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *labels)))

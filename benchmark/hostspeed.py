"""Host-speed calibration: a fixed numpy kernel timed beside every operation.

On a shared virtual machine the same operation's wall time drifts by 20-30%
over minutes with the load of other tenants, and a within-run median cannot
remove a drift that lasts longer than the run.  ``run.py`` therefore times
one fixed kernel in its own process just before and just after each worker,
and divides the run's median times by the run's slowdown: the kernel's
median time over ``REFERENCE_S``.  The kernel runs outside the worker, so it
leaves the worker's peak RSS alone; it is the benchmark's own code and never
calls fragpair, so a change to the program cannot move it.

The kernel is the dense query x bank squared distances and the partial sort
of one ``select-2k`` K-NN vote (1600 x 900, 8 features), repeated 8 times:
memory-bound numpy work, which slowed with all three workloads when the host
did (README.md gives the figures).
"""

from __future__ import annotations

import time

import numpy as np

# Median seconds of the kernel on this 2-vCPU host when quiet (README.md);
# a slowdown of 1.0 means the host ran at that speed.
REFERENCE_S = 0.14

_rng = np.random.default_rng(0)
_QUERIES = _rng.standard_normal((1600, 8))
_BANK = _rng.standard_normal((900, 8))


def measure() -> float:
    """Seconds the kernel takes now."""
    q, b = _QUERIES, _BANK
    start = time.perf_counter()
    for _ in range(8):
        d2 = np.maximum((q * q).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
                        - 2.0 * (q @ b.T), 0.0)
        np.argpartition(d2, 4, axis=1)[:, :5]
    return time.perf_counter() - start


def warm_up() -> None:
    """The first timings of a process run slow (cold caches, first allocations)."""
    for _ in range(2):
        measure()

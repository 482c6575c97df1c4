"""A fixed reference computation that gauges how fast the machine runs now.

The reference machine is shared with other tenants, and the same job's speed
drifts by up to 2x over tens of seconds (bench/README.md).  Each job runs
``measure()`` right before and right after ``cli.run`` and reports the time
over ``2 * REFERENCE_S`` as its slow-down; run.py divides a run's times by
their mean.  The computation mixes, in about equal parts, what ``cli.run``
spends its time on: a dense Cholesky factorisation, many small numpy calls
like the Woodbury solve of the student precision, and a plain Python loop.
Each part alone tracked the drift of ``cli.run`` over tens of seconds; the
mix tracked it best.  It depends only on numpy and on this file, never on
the package, so it measures the same work on every commit.
"""

from __future__ import annotations

import time

import numpy as np

#: nominal time of one ``measure()``, near its median on the reference
#: machine (2 vCPUs, "Intel(R) Xeon(R) Processor", BLAS at one thread), where
#: single passes took 0.17-0.27 s
REFERENCE_S = 0.2

DENSE_REPS = 32
SMALL_REPS = 1000
LOOP_REPS = 300_000

_rng = np.random.default_rng(20081219)
_a = _rng.standard_normal((300, 300))
_SPD = _a @ _a.T + 300.0 * np.eye(300)
_D = (_rng.integers(0, 8, 200)[:, None] == np.arange(8)).astype(float)
_W = np.hstack([np.full((200, 1), np.sqrt(1.6)), np.sqrt(14.4) * _D])
_X = np.column_stack([np.ones(8), np.arange(8) % 2]).astype(float)


def _small() -> float:
    m = _D @ _X
    k = 14.4 * np.eye(_W.shape[1]) + _W.T @ _W
    low = np.linalg.cholesky(k)
    inner = np.linalg.solve(low.T, np.linalg.solve(low, _W.T @ m))
    return float((m.T @ ((m - _W @ inner) / 14.4)).sum())


# first calls load BLAS kernels and warm the caches; keep them out of ``measure``
np.linalg.cholesky(_SPD)
_small()


def measure() -> float:
    """Seconds one pass of the reference computation takes now."""
    start = time.perf_counter()
    for _ in range(DENSE_REPS):
        np.linalg.cholesky(_SPD)
    for _ in range(SMALL_REPS):
        _small()
    counts: dict[int, int] = {}
    for i in range(LOOP_REPS):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start

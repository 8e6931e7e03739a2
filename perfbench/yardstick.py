"""A fixed reference workload that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine whose speed swings
by tens of percent for seconds to minutes at a time.  ``run.py`` times this
yardstick between `cip decode` jobs and divides each job's wall time by the
yardstick's time around it, so that a slow spell of the host does not read
as a slow program.  The yardstick is the benchmark's own code, not the
program's: a change to ``cip`` never changes it.

Its three parts imitate the kinds of work ``cip`` does: pure interpreter
work, Python loops that index small numpy arrays (the Eisner chart and
Chu-Liu/Edmonds), and ``logsumexp`` over many small matrices (the PR dual).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import logsumexp

_RNG = np.random.default_rng(12345)
_CHART = _RNG.normal(size=(26, 26))
_SMALL = [_RNG.normal(size=(9, 8)) for _ in range(60)]


def _interpreter() -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        total += i * i % 7
        if i % 64 == 0:
            table[i & 1023] = total
    return total + len(table)


def _chart() -> float:
    n = 25
    best = np.zeros((n + 1, n + 1))
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            top = -1e9
            for k in range(i, j):
                value = best[i, k] + best[k + 1, j] + _CHART[i, j]
                if value > top:
                    top = value
            best[i, j] = top
    return float(best[0, n - 1])


def _logsumexp() -> float:
    total = 0.0
    for m in _SMALL:
        total += float(np.exp(m - logsumexp(m, axis=0)).sum())
    return total


def _round() -> None:
    # About a third of the round's time goes to each part.
    for _ in range(5):
        _interpreter()
    for _ in range(50):
        _chart()
    for _ in range(12):
        _logsumexp()


def measure() -> float:
    """Wall seconds of one yardstick round (about 0.3 s on the reference host)."""
    start = time.perf_counter()
    _round()
    return time.perf_counter() - start

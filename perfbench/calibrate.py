"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of the same code drifts by a fifth or more within
minutes, because other tenants load the physical cores.  The speed
switches between two levels about 1.7 times apart, often several times a
second, and the share of time spent at each level differs from run to run.
The benchmark therefore runs a fixed pure-Python routine between operations
and scales each operation's wall time by ``REFERENCE_S / routine time``:

- an in-process operation (milliseconds) by the one call made right after
  it, which almost always runs at the same speed level;
- a subprocess operation (seconds) by the mean of every call in the run,
  since a short sample after it cannot stand for the switches during it.

The scaled figures read as seconds on a machine where the routine takes
``REFERENCE_S``; the raw wall times go on the detail line.

The routine is the benchmark's own code and does the kinds of work certkit
spends its time on: elimination over Q with ``Fraction`` entries, row
reduction of small integer matrices modulo 2 and 3, and dictionaries keyed
by tuples.  A change to certkit cannot change it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# routine time on a 2-vCPU x86-64 host under CPython 3.11.7, rounded
REFERENCE_S = 0.005
EXPECTED = (8, 4, 5, 1500)


def _rank_q(rows: list) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rank_mod(rows: list, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def routine() -> tuple:
    """One fixed unit of work; returns ``EXPECTED``."""
    q = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)]
         for i in range(8)]
    ints = [[(i * i + 3 * j + i * j) % 5 for j in range(12)] for i in range(10)]
    r2 = sum(_rank_mod(ints[k:k + 6], 2) for k in range(5)) // 5
    r3 = max(_rank_mod(ints[k:k + 7], 3) for k in range(4))
    cones: dict = {}
    for i in range(1500):
        key = tuple(sorted((i % 97, i % 89, i % 13)))
        cones[key] = cones.get(key, 0) + 1
    return _rank_q(q), r2, r3, len(cones)


class Calibration:
    """Routine times collected over one run."""

    def __init__(self):
        self.times: list = []

    def run(self, calls: int = 1) -> None:
        for _ in range(calls):
            t0 = time.perf_counter()
            value = routine()
            self.times.append(time.perf_counter() - t0)
            if value != EXPECTED:
                raise RuntimeError(f"calibration routine returned {value}")

    def mean_s(self) -> float:
        return statistics.fmean(self.times)

    def scale(self, last: int = 0) -> float:
        """Factor from wall seconds to reference seconds, from the mean time
        of the last ``last`` calls, or of every call by default.  The mean,
        not the median: the speed switches between two levels, and a median
        would jump from one to the other."""
        return REFERENCE_S / statistics.fmean(self.times[-last:])

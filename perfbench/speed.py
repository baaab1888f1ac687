"""A speed probe that scales measured times to a fixed reference speed.

The sandbox this benchmark was written on has 2 cores on a shared machine,
and its speed drifts by tens of percent over tens of seconds.  CPU time
drifts with wall time, so the cause is not waiting for a core, and raw times
spread too widely between runs to judge a 25% bound.

So, while an untraced run measures, a timer interrupts the program every
``PERIOD`` seconds and times a fixed piece of reference work: a small
``Fraction`` elimination written like the program's own inner loop, but
independent of twistss.  Each measured interval then

* loses the time the probes inside it took, and
* is scaled by ``NOMINAL / m``, where ``m`` is the median probe duration in
  the interval itself, or, when it holds fewer than ``MIN_SAMPLES`` probes,
  in its pass, or else in the whole run.

The result reads as seconds at the speed where one probe takes ``NOMINAL``
seconds.  A change to twistss moves the scaled times exactly as it moves the
raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.2
NOMINAL = 0.015
MIN_SAMPLES = 5

# A fixed 12 x 16 rational matrix, reduced like twistss.linalg.rref reduces
# its matrices: the same Fraction arithmetic on lists of rows.
ROWS, COLS = 12, 16
MATRIX = [
    [Fraction((i * 7 + j * 13) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(COLS)]
    for i in range(ROWS)
]


def reference_work() -> list:
    rows = [list(r) for r in MATRIX]
    pivot = 0
    for c in range(COLS):
        p = next((r for r in range(pivot, ROWS) if rows[r][c] != 0), None)
        if p is None:
            continue
        rows[pivot], rows[p] = rows[p], rows[pivot]
        inv = 1 / rows[pivot][c]
        rows[pivot] = [x * inv for x in rows[pivot]]
        for r in range(ROWS):
            if r != pivot and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot])]
        pivot += 1
        if pivot == ROWS:
            break
    return rows


class SpeedProbe:
    """Samples the reference work on a timer and scales intervals by it."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        reference_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def probe_time(self, t0: float, t1: float) -> float:
        """Time spent in probes that started inside [t0, t1)."""
        lo, hi = self._window(t0, t1)
        return sum(self.durations[lo:hi])

    def factor(self, *windows: tuple[float, float]) -> float:
        """NOMINAL over the median probe duration in the first window that
        holds MIN_SAMPLES probes, or in the whole run."""
        for t0, t1 in windows:
            lo, hi = self._window(t0, t1)
            if hi - lo >= MIN_SAMPLES:
                return NOMINAL / statistics.median(self.durations[lo:hi])
        return NOMINAL / statistics.median(self.durations)

    def scaled(self, t0: float, t1: float, *outer: tuple[float, float]) -> float:
        """Probe-free length of [t0, t1), scaled by the factor of the
        interval itself, else of the first ``outer`` window with enough probes."""
        return (t1 - t0 - self.probe_time(t0, t1)) * self.factor((t0, t1), *outer)

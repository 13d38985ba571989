"""Machine-speed calibration, so that times from a shared machine compare.

On the shared 2-core reference machine (Python 3.11, numpy 2.4), other
tenants slow the machine by up to 1.7x for stretches of one to twenty
seconds; the same 4001-point design_scan operation then reads 2.4 ms in one
stretch and 3.9 ms in the next.  A fixed kernel owned by the benchmark (a
Python loop over numpy scalars, like peak_find; complex vector arithmetic,
like the spectrum; small numpy calls, like the saturation scan) slows by
nearly the same factor.  Over 90 s of drift, 3-second medians of 601-point
and 4001-point design_scan operations and of a saturation curve varied by
12-13% (coefficient of variation) as measured and by 3-4% once divided by
the kernel time.  So the benchmark runs the kernel between operations and
reports every time scaled to the speed at which the kernel takes
REFERENCE_S.

The kernel runs outside every timed region and does not touch the program.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 2.2e-3        # uncontended kernel time on the 2-core reference machine
INTERVAL_S = 0.2            # least time between two calibrations
REPEAT = 3                  # kernel runs per calibration
WINDOW_S = 1.0              # kernel runs this close to an operation set its speed


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._y = rng.random(3000)
        self._z = rng.random(4001) + 1j * rng.random(4001)
        self._u = np.linspace(0.1, 2.0, 96)
        self._times: list[float] = []       # midpoints of kernel runs
        self._seconds: list[float] = []     # their durations
        self._last = -float("inf")

    def _kernel(self) -> float:
        y, z, u = self._y, self._z, self._u
        total = 0.0
        for i in range(1, len(y) - 1):
            if y[i] > y[i - 1] and y[i] > y[i + 1]:
                total += 1.0
        for _ in range(20):
            total += float(np.abs(z / (z + 1.5) + z * z).argmax())
        for i in range(50):         # small numpy calls, like the saturation scan
            x = np.asarray(0.5 + i * 1e-3)[..., np.newaxis]
            f = 1.0 - 1.0 / np.sqrt((1.0 + 0.17 * x * u) * (1.0 + x * u))
            with np.errstate(divide="ignore", invalid="ignore"):
                total += float(np.where(x > 0.0, np.sum(f, axis=-1) / x, 1.0)[0])
        return total

    def tick(self, force: bool = False) -> None:
        """Calibrate if INTERVAL_S has passed since the last calibration (or if forced)."""
        if not force and time.perf_counter() - self._last < INTERVAL_S:
            return
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self._times.append(0.5 * (t0 + t1))
            self._seconds.append(t1 - t0)
        self._last = t1

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, scaled to the reference speed.

        The local speed is the median kernel time within WINDOW_S of the
        interval, or the nearest kernel run when none lies that close.
        """
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, start + seconds + WINDOW_S)
        local = self._seconds[lo:hi]
        if not local:
            i = min(bisect.bisect_left(self._times, start), len(self._times) - 1)
            local = self._seconds[max(i - 1, 0):i + 1]
        return seconds * REFERENCE_S / statistics.median(local)

"""Host-speed calibration: a fixed reference kernel timed between jobs.

The benchmark runs on a core shared with other tenants, whose load makes
the same job take 30 % longer from one minute to the next.  CPU time
does not remove that: the process is not descheduled, the core just runs
it slower.  So the worker times a fixed kernel that does not use
starphase, between jobs and throughout the run, and scales every
measured time by ``REFERENCE_S / mean kernel time``.  Reported times
are then those of a reference core on which the kernel takes
``REFERENCE_S``: a change to starphase moves them, a change in host load
does not.  The kernel mixes what the jobs do: a scalar Runge-Kutta loop
on two-element arrays (interpreter and numpy call overhead), float
formatting and an array expression on a 64 x 64 grid.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: CPU time of one kernel call on the reference core (a 2-core Xeon VM
#: when the benchmark was defined); reported times are scaled to it
REFERENCE_S = 1.6e-3

#: kernel calls in one calibration burst
BURST = 3

_C = (0.2, 0.3, 0.8, 8 / 9, 1.0)
_A = [np.array([1 / 5]), np.array([3 / 40, 9 / 40]),
      np.array([44 / 45, -56 / 15, 32 / 9]),
      np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
      np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                -5103 / 18656])]


def _field(t: float, y: np.ndarray) -> np.ndarray:
    x, v = float(y[0]), float(y[1])
    a = (2.0 - 3.0 * x) / (1.0 - x) if x < 1.0 else 2.0
    return np.array([v - x, a * v - v * v / (1.0 + x)])


def kernel() -> float:
    """The fixed reference work; returns a value so nothing is skipped."""
    y, h, t = np.array([0.01, 0.02]), 0.01, 0.0
    k = np.empty((6, 2))
    rows = []
    for _ in range(60):
        k[0] = _field(t, y)
        for i, a in enumerate(_A):
            k[i + 1] = _field(t + _C[i] * h, y + h * (a @ k[:i + 1]))
        y = y + h * k[5]
        t += h
        rows.append("%r,%r,%r" % (t, float(y[0]),
                                  math.log(abs(float(y[1])) + 1.0)))
    g = np.linspace(0.01, 0.9, 64)
    x, v = np.meshgrid(g, g)
    for _ in range(4):
        val = v - x - np.log(v / x) + (2.0 - 3.0 * x) / (1.0 - x)
        x = x * 0.999
    return len("\n".join(rows)) + float(val.sum())


class Speedometer:
    """Kernel CPU times sampled over a run."""

    def __init__(self, warmup: int = 5):
        self.times: list = []
        for _ in range(warmup):
            kernel()

    def burst(self, n: int = BURST) -> float:
        """Time ``n`` kernel calls; returns the CPU time they took."""
        spent = 0.0
        for _ in range(n):
            c0 = time.process_time()
            kernel()
            dt = time.process_time() - c0
            self.times.append(dt)
            spent += dt
        return spent

    def scale(self) -> float:
        """Factor from this host's CPU time to the reference core's.  The
        mean, not the median: kernel times are skewed by bursts of load
        on the core, and a job's time is the sum of the same bursts."""
        return REFERENCE_S / statistics.fmean(self.times)

    def record(self) -> dict:
        return {"kernel_calls": len(self.times),
                "kernel_mean_ms": statistics.fmean(self.times) * 1e3,
                "kernel_median_ms": statistics.median(self.times) * 1e3,
                "reference_ms": REFERENCE_S * 1e3, "scale": self.scale()}

"""Machine-speed probe that steadies the end-to-end timings.

On a shared host the same code runs up to a third slower for seconds to
minutes at a time, so the wall time of a benchmark run moves with the mix of
fast and slow phases it happens to meet.  A fixed kernel, timed between the
CLI invocations of every pass, samples the same mix; a run's mean pass time
multiplied by ``SpeedProbe.REFERENCE_S`` over the mean kernel time is its
time at reference speed.  The kernel mixes the work the workloads do:
interpreted scalar arithmetic, small numpy FFT calls and arithmetic on large
arrays.  It runs no code of the package under test, so a change to the
package moves the rescaled time as it moves the wall time.
"""

from __future__ import annotations

import time

import numpy as np


class SpeedProbe:
    """A fixed mixed kernel; ``seconds()`` times one run of it."""

    # Kernel time at the speed all timings are rescaled to: about its median
    # on a shared 2-vCPU Xeon (Sapphire Rapids) KVM guest with Python 3.11.7
    # and numpy 2.4.6, so rescaled times read close to wall times there.
    REFERENCE_S = 0.130

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        self.large = rng.standard_normal(200_000)
        self.seconds()  # first touches of the arrays and of numpy's FFT plans

    def _scalar(self) -> float:
        total = 0.0
        for i in range(480_000):
            total += i * 0.5
        return total

    def _small_arrays(self) -> float:
        y = self.small
        for _ in range(1600):
            y = np.fft.ifft(np.fft.fft(y) * 1.0)
        return float(y.real[0])

    def _large_arrays(self) -> float:
        total = 0.0
        for _ in range(24):
            total += float(np.sqrt(np.abs(self.large) * 2.0 + 1.0).sum())
        return total

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        self._scalar()
        self._small_arrays()
        self._large_arrays()
        return time.perf_counter() - start

"""Host-speed calibration: every timed part is bracketed by a kernel.

The hosts this benchmark runs on are shared, and their speed swings by
up to 1.8x for seconds to tens of seconds at a time, longer than a run.
Neither the median nor the best of raw repetition times repeats across
runs then.  So every timed part (0.3-1.5 s of work) is bracketed by
runs of a fixed pure-Python kernel -- dict stores and lookups in a
loop, interpreter-bound like the simulator, in code no change to
``src/`` can touch -- and its time is converted to *reference seconds*:
host seconds x the kernel's time on the reference host
(``KERNEL_REF_S``) / the kernel's time around the part.  A slower
simulator still reads slower; a host that is slower for everyone does
not.
"""

from __future__ import annotations

import time

#: Kernel time on the reference host (2-core Intel Xeon, Python 3.11,
#: uncontended), so reference seconds read as that host's seconds.
KERNEL_REF_S = 0.029

_ITERATIONS = 200_000


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    store = {}
    total = 0
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        store[i & 1023] = i
        total += store.get((i * 7) & 1023, 0)
    return time.perf_counter() - start


def reference_seconds(seconds: float, kernels) -> float:
    """``seconds`` of host time in reference seconds, given the kernel
    times measured around the interval."""
    return seconds * KERNEL_REF_S * len(kernels) / sum(kernels)


class Stopwatch:
    """Times the parts of one measurement, each bracketed by the kernel.

    With ``calibrate=False`` (the traced run, which reports raw host
    time) no kernel runs and :attr:`reference_s` equals :attr:`host_s`.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.host_s = 0.0
        self.reference_s = 0.0

    def part(self, fn, *args):
        before = kernel_seconds() if self.calibrate else None
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.host_s += seconds
        if self.calibrate:
            seconds = reference_seconds(seconds, (before, kernel_seconds()))
        self.reference_s += seconds
        return result

"""Machine-speed probes, so set-up and command times can be normalised.

On a shared host the speed of one core drifts by tens of percent within
seconds: other tenants change the clock frequency and share the core's
caches. The drift is the same for any interpreter-bound code, so a fixed
probe timed at the same moments as the measured code tracks it. A
``SpeedProbe`` runs a small fixed unit of work from a timer signal every few
milliseconds while the measured code runs. The probes use only their own
objects, so they cannot change what the measured code computes.

A time is normalised by multiplying it by ``scale(samples, reference)``:
the reference probe time over the trimmed mean of the probe samples taken
while it ran. It then reads as seconds on a machine where one probe takes
the reference time.

This module imports only the standard library, so that it can probe set-up
from before ``numpy`` is imported.
"""

from __future__ import annotations

import bisect
import signal
import time

# Typical probe times, taken the same way, on a shared 2-core x86-64 VM with
# Python 3.11 and numpy 2.4, so that normalised times read close to wall
# times there. They only set the scale; ratios between normalised times do
# not depend on them.
PYTHON_REFERENCE_S = 21e-6  # probe_python every SETUP_PERIOD_S during set-up
NUMPY_REFERENCE_S = 85e-6  # probe_numpy every COMMAND_PERIOD_S during a command
SETUP_PERIOD_S = 0.002  # about 1% of set-up time
COMMAND_PERIOD_S = 0.005  # about 2% of command time
TRIM = 0.1  # share of samples dropped at each end before averaging

_ones = None  # the numpy probe's array, made on its first call


def probe_python() -> float:
    """Fixed pure-Python work (float arithmetic, dict stores, tuples); its
    duration in seconds."""
    start = time.perf_counter()
    acc = 0.0
    keep = {}
    for i in range(60):
        x = (i * 0.5 + acc) * 1e-3
        keep[i] = (x, i)
        acc += x - acc * 0.5
    return time.perf_counter() - start


def probe_numpy() -> float:
    """Fixed small-array numpy work with dict stores, like a tape-building
    interpreter-bound program; its duration in seconds."""
    global _ones
    if _ones is None:
        import numpy as np

        _ones = np.ones(8)
    start = time.perf_counter()
    a = _ones
    keep = {}
    for i in range(30):
        a = a * 1.0001 + 0.5
        keep[i] = (a, i)
    float(a.sum())
    return time.perf_counter() - start


class SpeedProbe:
    """Calls ``probe`` every ``period`` seconds from SIGALRM, between
    ``start()`` and ``stop()`` (or inside a ``with`` block)."""

    def __init__(self, probe, period: float) -> None:
        self.probe = probe
        self.period = period
        self.samples: list = []
        self.starts: list = []  # perf_counter at the start of each sample
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.samples.append(self.probe())

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def total_s(self) -> float:
        """Time spent inside the probe, to subtract from the measured wall."""
        return sum(self.samples)

    def time_within(self, start: float, end: float) -> float:
        """Probe time between two ``perf_counter`` readings taken outside the
        probe, so that no sample straddles either of them."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.samples[lo:hi])


def trimmed_mean(samples: list) -> float:
    xs = sorted(samples)
    k = int(len(xs) * TRIM)
    xs = xs[k:len(xs) - k]
    return sum(xs) / len(xs)


def scale(samples: list, reference: float) -> float:
    """Factor that turns seconds measured while ``samples`` were taken into
    seconds where one probe takes ``reference``."""
    return reference / trimmed_mean(samples)

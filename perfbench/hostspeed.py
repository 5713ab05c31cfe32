"""Host-speed probe: a fixed computation, independent of sgmc, timed next to
the benchmark's work so that its timings can be scaled to one host speed.

The host this benchmark was written on is a shared virtual machine whose
speed changes by up to a third within seconds and drifts over minutes: the
same sweep, repeated in one process, took 0.57 s to 0.97 s within two
minutes, and its CPU time followed its wall time.  Ten seeds of every
workload, run twice, span most of an hour, so raw wall times compare the
host's moods, not the program.  The probe solves small dense pseudo-inverses and least-squares
problems, like the package's active-set algebra, with numpy alone, so a
change to sgmc never changes it.

`scale(samples)` is NOMINAL_S over the mean of probe samples taken around a
timed interval; multiplying the interval by it gives *reference seconds*,
the time the interval would have taken with the probe at NOMINAL_S.  The
mean, not the median, because the host switches between a fast and a slow
state, and an interval's time follows the share of it spent in each.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the reference probe time: about the probe's time, in its fast state, on the
# host that recorded BASELINE.md (2-core VM, Python 3.11, numpy 2.4.6,
# OpenBLAS at one thread).  Changing it rescales every bounded time.
NOMINAL_S = 0.015
# after a timed call, probe for about this share of its duration (at least once)
PROBE_SHARE = 0.08

_MATRICES = [np.random.default_rng(k).normal(size=(100, k)) for k in (25, 50, 75, 100)] * 2


def probe() -> float:
    """Wall time of one pass of the fixed computation."""
    start = time.perf_counter()
    for X in _MATRICES:
        np.linalg.pinv(X)
        np.linalg.lstsq(X, X[:, 0], rcond=None)
    return time.perf_counter() - start


def sample(busy_s: float = 0.0, least: int = 1) -> list[float]:
    """Probe samples worth about PROBE_SHARE of `busy_s` seconds, at least `least`."""
    count = max(least, math.ceil(PROBE_SHARE * busy_s / NOMINAL_S))
    return [probe() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Factor that turns wall seconds measured among `samples` into
    reference seconds."""
    return NOMINAL_S / statistics.fmean(samples)

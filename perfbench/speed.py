"""Machine-speed probe: item latencies are scaled to a nominal speed.

On a shared machine the speed of identical work drifts: on a shared
2-vCPU x86-64 VM (Python 3.11, numpy 2.4), the same oracle item took 91
to 215 ms depending on the minute, and 20-second throughput windows of
identical work spread by 0.15-0.19 (IQR / median).  The probe times a
fixed reference computation with jetlag's instruction mix -- scalar float
math, size-1 numpy arrays as in the scalar Ei path, dict and tuple
traffic -- that never calls jetlag, so only the machine changes its time.

An item's latency is scaled by ``NOMINAL_S / r``, with ``r`` the mean of
the probe times measured just before and just after it.  A factor of 1
means the reference took ``NOMINAL_S``; raw times are reported beside the
scaled ones.  Scaling brought the spread of the same 20-second windows
down to 0.02.  Set-up time is not scaled: a probe after ``import`` did not
track it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: reference time at nominal speed; on the VM above it ranged from 0.49 ms
#: (an idle vCPU) to 1.15 ms (a busy one)
NOMINAL_S = 0.8e-3
#: a probe is taken after an item only when this long has passed since the last
MIN_INTERVAL_S = 0.05


def reference_work(n: int = 12) -> float:
    """The fixed reference computation; its result only keeps it honest."""
    acc = 0.0
    seen = {}
    for i in range(n):
        z = np.atleast_1d(np.asarray(0.5 + 0.01 * i, dtype=float))
        term = np.ones_like(z)
        for k in range(1, 12):
            term = term * z / k
            acc += float(np.where(term > 0.0, term, 0.0)[0])
        x = 0.25 + 1e-3 * i
        acc += math.exp(-x) * x**3 / (1.0 + x * x)
        seen[(i % 5, x)] = acc
    return acc


def probe(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` reference computations, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledLatencies:
    """Item latencies, raw and scaled by the probes taken around them."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self._pending: list[float] = []
        self._last = probe()
        self._last_at = time.perf_counter()

    def elapsed(self) -> float:
        """Scaled time of the items so far; the latest ones at the last scale."""
        pending = sum(self._pending) * NOMINAL_S / self._last
        return sum(self.scaled) + pending

    def add(self, latency: float) -> None:
        self.raw.append(latency)
        self._pending.append(latency)
        if time.perf_counter() - self._last_at >= MIN_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        """Probe now and scale every latency recorded since the last probe."""
        if not self._pending:
            return
        now = probe()
        factor = NOMINAL_S / (0.5 * (self._last + now))
        self.scaled += [lat * factor for lat in self._pending]
        self.factors += [factor] * len(self._pending)
        self._pending = []
        self._last = now
        self._last_at = time.perf_counter()

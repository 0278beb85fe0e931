"""Host-speed probe: a fixed kernel timed throughout the measured solves.

On a shared host the same solve can take 40% longer for minutes at a time,
because other tenants slow the CPU. The benchmark therefore times a fixed
probe kernel before and after every solve and, while ``sampling`` is on,
every ``PROBE_INTERVAL_S`` seconds during it (from a SIGALRM handler, which
Python runs between bytecodes of the main thread). A solve's time at the
reference host speed is its wall time, less the probes that ran inside it,
times the mean speed of the probes around and inside it, a probe's speed
being ``REFERENCE_S`` over its time. Probes run at even wall-time steps, so
the mean speed weights each stretch of the solve by its length; a median
would drop the short stalls that also slow the solve.

The probe mixes the solver's two kinds of work, a Python loop of small block
operations (as in the line kernels) and long-vector products (as in GMRES),
and never calls the solver, so a change to the solver cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Median probe time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, one
# BLAS thread) in a quiet period. Only ratios matter: another constant
# rescales every time metric by the same factor.
REFERENCE_S = 0.015
# Seconds between probes while ``HostClock.sampling`` is on.
PROBE_INTERVAL_S = 0.25

_CELLS = 128
_VECTORS = 24
_LENGTH = 4096
_REPEATS = 12


class HostProbe:
    """Fixed inputs, built once; ``measure`` returns one probe's seconds."""

    def __init__(self):
        rng = np.random.default_rng(20180510)
        self.blocks = rng.standard_normal((_CELLS, 3, 3)) + 4.0 * np.eye(3)
        self.rhs = rng.standard_normal((_CELLS, 3))
        basis = rng.standard_normal((_VECTORS, _LENGTH))
        self.basis = basis / np.linalg.norm(basis, axis=1)[:, None]
        self.vector = rng.standard_normal(_LENGTH)

    def _kernel(self) -> float:
        y = self.rhs.copy()
        for m in range(1, _CELLS):
            y[m] = np.linalg.inv(self.blocks[m]) @ (y[m] - self.blocks[m - 1]
                                                    @ y[m - 1])
        w = self.vector.copy()
        for v in self.basis:
            w -= np.dot(v, w) * v
        return float(y[-1, 0] + w[0])

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            self._kernel()
        return time.perf_counter() - t0


class HostClock:
    """Times calls as measured and at the reference host speed."""

    def __init__(self):
        self.probe = HostProbe()
        self.samples = []          # (start, seconds) of every probe run
        self._busy = False
        self.sample()

    def sample(self, *_signal_args) -> None:
        if self._busy:             # the timer fired during a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append((start, self.probe.measure()))
        finally:
            self._busy = False

    @contextmanager
    def sampling(self, handler=None):
        """Probe every ``PROBE_INTERVAL_S`` seconds inside the block as well.

        ``handler`` replaces ``self.sample`` as the timer's handler; a tracer
        passes a wrapped ``sample`` so that probe time is not charged to the
        layer it interrupts.
        """
        previous = signal.signal(signal.SIGALRM, handler or self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def call(self, fn, *args):
        """Return ``(result, wall seconds, reference-speed seconds)``."""
        before = self.samples[-1][1]
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        inside = [s for start, s in self.samples if t0 <= start < t1]
        self.sample()
        wall = t1 - t0 - sum(inside)
        speed = statistics.fmean(REFERENCE_S / s for s in
                                 [before, *inside, self.samples[-1][1]])
        return result, wall, wall * speed

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return REFERENCE_S / statistics.median(s for _, s in self.samples)

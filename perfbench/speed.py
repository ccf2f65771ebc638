"""The host's speed, sampled while a timed call runs.

The benchmark's host is a VM on a shared machine, and its speed switches
between a fast and a slow state (about 1.6x apart) that each last 10-20
seconds: a 15-second run can fall wholly in either.  Raw wall times then
spread across runs far more than any change worth detecting.  So every
timed call is also measured against a fixed calibration kernel, run in
the same process from a SIGALRM timer every PERIOD_S seconds while the
call runs and around it.  The kernel mixes Python-level work and small
LAPACK calls, as kronlift does.

A call's reference time is its wall time scaled by the kernel's speed
over that interval: wall × mean(REF_KERNEL_S / kernel time) over the
samples taken from MARGIN_S before the call to MARGIN_S after it.  It
reads as the wall time the call would take with the kernel at
REF_KERNEL_S, its time in the host's fast state.  Time spent in the
timer handler is left out of the wall time.  The kernel reads a fixed
matrix and draws no random numbers, so it changes no state the program
sees.
"""

from __future__ import annotations

import signal
from time import perf_counter, sleep

import numpy as np

PERIOD_S = 0.01
MARGIN_S = 0.03
WARMUP_CALLS = 5
# the kernel's time in the fast state of the reference host (see README)
REF_KERNEL_S = 0.0007

_A = np.random.default_rng(0).standard_normal((40, 40))
_B = np.random.default_rng(1).standard_normal((28, 100))


def kernel() -> None:
    np.linalg.eigvals(_A)
    np.linalg.svd(_B, compute_uv=False)
    acc, seen = 0, {}
    for i in range(2500):
        acc += i * i
        seen[i & 127] = acc


class SpeedMeter:
    """Samples the kernel's time every PERIOD_S seconds once started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, kernel time)
        self.paused = 0.0  # total time spent in the handler

    def _sample(self, *_) -> None:
        started = perf_counter()
        kernel()
        ended = perf_counter()
        self.samples.append((ended, ended - started))
        self.paused += ended - started

    def start(self) -> None:
        started = perf_counter()
        for _ in range(WARMUP_CALLS):  # the first calls in a process are slow
            kernel()
        self.paused += perf_counter() - started
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def idle(self) -> None:
        """Let the timer sample for MARGIN_S with nothing else running."""
        end = perf_counter() + MARGIN_S
        while (left := end - perf_counter()) > 0:
            sleep(left)

    def time(self, fn, *args):
        """(result, wall time without the handler's, started, ended)."""
        paused, started = self.paused, perf_counter()
        result = fn(*args)
        ended = perf_counter()
        return result, ended - started - (self.paused - paused), started, ended

    def reference(self, wall: float, started: float, ended: float) -> float:
        """`wall` scaled to the reference speed; needs samples around it."""
        ratios = [REF_KERNEL_S / k for t, k in self.samples
                  if started - MARGIN_S <= t <= ended + MARGIN_S]
        if not ratios:
            raise RuntimeError("no speed sample around a timed call")
        return wall * sum(ratios) / len(ratios)

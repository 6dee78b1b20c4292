"""A probe of the host's current speed, for normalising timed figures.

On a host whose virtual CPUs are shared, the same work can take up to twice
as long from one second to the next, in CPU time as well as in wall time (see
README.md). The reference kernel is a fixed piece of interpreter and numpy
work that runs no emoforge code. A timed figure is divided by the kernel's
CPU time measured on the same thread at the same time, and multiplied by
KERNEL_S, so the host's speed cancels out while a change to emoforge does not.

This module imports only numpy, so that the ``import emoforge`` timing child
can use it after its timing without adding to it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# figures are given as if the kernel took this long; it is close to the
# kernel's CPU time on a 2-vCPU x86 virtual machine at its faster speed
KERNEL_S = 0.0005
SAMPLE_EVERY_S = 0.1  # between kernel samples during a long operation

_INPUT = np.random.default_rng(0).standard_normal(512)


def reference_kernel() -> float:
    """Thread CPU seconds of the fixed kernel, about half a millisecond."""
    start = time.thread_time()
    total = 0
    for i in range(5000):
        total += i * i % 7
    for _ in range(5):
        np.correlate(_INPUT, _INPUT, "full")
    return time.thread_time() - start


def current_kernel(runs: int = 3) -> float:
    """The kernel's CPU time now: the median of a few back-to-back runs."""
    return statistics.median(reference_kernel() for _ in range(runs))


class Sampler:
    """Times the kernel on the main thread every SAMPLE_EVERY_S seconds while
    active, from a SIGALRM handler, so the samples come from the same thread
    and the same moments as the work they normalise. ``overhead_wall`` and
    ``overhead_cpu`` are the handler's own time, to subtract from the
    operation's."""

    def __init__(self):
        self.kernels: list[float] = []
        self.overhead_wall = 0.0
        self.overhead_cpu = 0.0

    def _sample(self, signum, frame) -> None:
        wall = time.perf_counter()
        kernel = reference_kernel()
        self.kernels.append(kernel)
        self.overhead_cpu += kernel
        self.overhead_wall += time.perf_counter() - wall

    def kernel(self) -> float:
        """Median kernel time over the samples, or one measured now when the
        operation was too short to be sampled."""
        return statistics.median(self.kernels) if self.kernels else current_kernel()

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

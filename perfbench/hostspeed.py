"""Host speed sampled while a call runs, to express its time in seconds of
a reference host.

A shared host makes a process take up to 1.6 times as long for seconds to
a minute at a time, while nothing else runs in the process's own machine;
a benchmark run can fall wholly in a slow stretch. To take that out of a
timing, a fixed pure-Python kernel is timed before and after the call and,
through a SIGALRM timer, every ``PERIOD_S`` during it. The call's own time (the
sampling handler's time taken out) is then scaled to a host on which the
kernel takes ``REFERENCE_S``:

    reference seconds = own seconds * REFERENCE_S * mean(1 / kernel seconds)

The mean of the kernel's speed over samples evenly spread in time is the
call's mean host speed, so a call run wholly at reference speed keeps its
time. The kernel is interpreter arithmetic, as most of collectsim's work is.
It follows the slow stretches only in part: over 6 s windows on a 2-vCPU VM
the spread of log(time) of a tour-planning run fell from 0.13 unscaled to
0.048 scaled, and the slowest windows still read longer than the fastest.
Kernels that add random reads from a buffer larger than the L2 cache did no
better over tour planning and the bounds together.
"""

from __future__ import annotations

import contextlib
import signal
import time

KERNEL_LOOPS = 25_000
REFERENCE_S = 0.002  # kernel time on the reference host
PERIOD_S = 0.05


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """Times calls and reports each in reference seconds."""

    def __init__(self) -> None:
        self._speed = 0.0    # sum of 1 / kernel seconds
        self._samples = 0
        self._handler_s = 0.0

    def _sample(self) -> None:
        seconds = kernel_seconds()
        self._speed += 1.0 / seconds
        self._samples += 1

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self._handler_s += time.perf_counter() - start

    @contextlib.contextmanager
    def timing(self, result: list):
        """Time the block; append (own seconds, reference seconds) to
        ``result`` when it ends, also when it raises."""
        self._speed, self._samples, self._handler_s = 0.0, 0, 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            own = end - start - self._handler_s
            self._sample()
            result.append((own, own * REFERENCE_S * self._speed
                           / self._samples))

"""The host's speed, read from a fixed loop that belongs to the benchmark.

The host these workloads were sized on shares its cores with other
machines: the same code runs at speeds up to ~1.7x apart, switching about
every second and drifting over minutes, so two 20 s runs of unchanged
code differ by up to 25% in wall time. Every time the benchmark reports is
therefore wall time scaled to a reference speed: multiplied by REFERENCE_S
over what this loop took around that moment. The loop is pure Python on
builtins, imports nothing of the package and runs with the cyclic garbage
collector off, so the package can change neither its work nor its cost
except by competing with it for the processor.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# What one loop takes on the 2-core x86-64 box the workloads were sized
# on, at its faster speed: scaled times read as wall times on that box.
REFERENCE_S = 200e-6
PERIOD_S = 0.05  # how often a Meter samples


def _loop() -> int:
    """Build a binary tree of 1023 tuples and count its leaves, without recursion."""
    level = [(0,)] * 512
    while len(level) > 1:
        level = [(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    leaves, stack = 0, [level[0]]
    while stack:
        node = stack.pop()
        if len(node) == 1:
            leaves += 1
        else:
            stack.extend(node)
    return leaves


def sample() -> float:
    """Seconds one loop takes now: the median of three, after an untimed warm-up loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        times = []
        for _ in range(3):
            t0 = perf_counter()
            _loop()
            times.append(perf_counter() - t0)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


def scale(*samples: float) -> float:
    """The factor that takes a wall time to the reference speed, from samples around and inside it."""
    return REFERENCE_S * len(samples) / sum(samples)


class Meter:
    """Samples of the host's speed taken by an interval timer while ops run.

    A single op may last seconds, over which the host's speed changes;
    samples taken inside the op follow it. The timer's handler runs in
    this thread between two bytecodes of whatever is running, and the
    time it takes is recorded so that it can be taken out of the op's
    time. A sample adds four frames to the stack; if that crosses the
    recursion limit the sample is skipped (the ops here stay hundreds of
    frames below it).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        try:
            self.samples.append(sample())
        except RecursionError:
            pass
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Meter":
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

"""Machine-speed sampling, so that times taken on a shared machine compare.

On a virtual machine that shares its cores with other tenants, the speed
of pure-Python code drifts by tens of percent within seconds and by up
to 2x over minutes, and the two cores drift apart.  A :class:`Sampler`
times a short fixed pure-Python kernel every ``INTERVAL_S`` from a
``SIGALRM`` handler, so the samples run on the same core and in the same
moments as the measured code.  The machine's speed over the interval is
the mean over the samples of ``REFERENCE_S`` over a sample's time.  The
measured wall time, less the sampler's own time, is multiplied by that
speed to the power ``SENSITIVITY``: the time the same work takes at the
speed at which one kernel call takes ``REFERENCE_S``.  A change to the
measured program moves the rescaled time as it moves the wall time; a
change in the machine's speed mostly does not.
"""

from __future__ import annotations

import array
import signal
import time

#: Median of 5000 back-to-back kernel calls on a 2-core Intel Xeon
#: (Sapphire Rapids) KVM guest with Python 3.11, so that rescaled times
#: read as seconds on that machine at its usual speed.
REFERENCE_S = 0.25e-3
#: One sample every 8 ms costs the measured code about 3% of its time.
#: Dense samples follow the machine's speed closely: between repeated
#: calls of one cell, samples every 25 ms left up to 2.5x the spread.
INTERVAL_S = 0.008
KERNEL_STEPS = 1500
#: How much more than the kernel the measured code slows down on a busy
#: machine: its time goes as the kernel's to this power.  A log-log fit
#: over 22-25 calls each of six cells of three workloads gave 1.25-1.43,
#: and this exponent left the least spread between the calls.  The
#: kernel works in the first-level cache; the recompiler does not.
SENSITIVITY = 1.25

_TABLE = dict.fromkeys(range(64), 0)
_ZEROS = dict(_TABLE)


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Dict traffic and integer arithmetic, as in an interpreter loop.
    It allocates no container, so it never moves the collector's
    schedule in the measured code."""
    acc, table = 0, _TABLE
    table.update(_ZEROS)
    for i in range(steps):
        key = i & 63
        table[key] = table[key] + (i ^ acc)
        acc = (acc + table[key]) & 0xFFFF
    return acc


class Sampler:
    """Times the kernel throughout a measured interval.

    ``start()`` arms the timer; ``stop()`` disarms it and returns the
    interval's rescaled seconds.  Only one sampler may run at a time in a
    process, because it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        # A C array: float objects kept until the end would take pool
        # memory between the measured code's objects, and move its peak
        # resident size by an arena.
        self.samples = array.array("d")
        self.started: float | None = None
        #: Wall time of the interval less the sampler's own time.
        self.wall_s = 0.0
        #: The machine's speed: the mean over the samples of the reference
        #: time over their time.
        self.speed = 1.0

    def _tick(self, _signum, _frame) -> None:
        begin = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - begin)

    def start(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.wall_s = end - self.started - sum(self.samples)
        if not self.samples:
            # An interval shorter than INTERVAL_S: sample right after it.
            self._tick(None, None)
        self.speed = REFERENCE_S * sum(1 / s for s in self.samples) \
            / len(self.samples)
        return self.wall_s * self.speed ** SENSITIVITY

"""Task times at the speed of a reference machine.

The benchmark's machine is a 2-vCPU guest on a shared host.  The speed
of each vCPU swings by a factor of 1.5 to 2 within seconds, with the
load of the host, and the share of slow time drifts over minutes.  The
swing shows in CPU time as much as in wall time, so neither would let
two runs of the same code agree within a useful bound.

``RefClock`` removes the swing.  A profiling timer interrupts the
process every ``INTERVAL_S`` of CPU time, and each tick times a fixed
yardstick: a few hundred microseconds of set, dict and tuple work.
CPU time between two ticks counts at reference speed, scaled by
``YARDSTICK_REF_S`` over the mean of the yardstick times at both ends,
that is by how much faster or slower than the reference the vCPU ran
in between.  Time spent in ticks is left out.  The result is the CPU
time the same work takes at reference speed; on an idle machine in
its fast state it is close to wall time.

The yardstick is fixed code of the benchmark, so a change to sepstar
does not change it.  ``YARDSTICK_REF_S`` is its time on an idle
2.0 GHz Xeon vCPU with Python 3.11.7; only ratios of readings are
comparable across machines.

Use: take readings with ``now()`` while the clock runs, ``close()``
it, then convert pairs of readings with ``seconds(start, end)``.
"""

from __future__ import annotations

import atexit
import bisect
import signal
import time

INTERVAL_S = 0.05
YARDSTICK_REF_S = 0.0002

# the process CPU clock only advances at scheduler ticks while a
# profiling timer is armed; the thread clock stays exact
_clock = time.thread_time


def yardstick() -> int:
    """Fixed work: small sets, tuple keys, dict updates and sorting."""
    seen: dict = {}
    acc = 0
    for i in range(160):
        key = (i & 31, i >> 5)
        part = frozenset(range(i & 15, (i & 15) + 6))
        seen[key] = seen.get(key, 0) + len(part | {i})
        acc ^= hash(key) ^ (i * 2654435761 & 0xFFFF)
    return acc + sum(sorted(seen.values())[:4])


class RefClock:
    """Raw readings of this thread's CPU time, and a tick log that
    converts them to reference seconds.

    ``pause()`` stops the ticks, for code that must not be interrupted
    such as a deliberately deep recursion; the time until the next tick
    counts at the speed measured around it.
    """

    def __init__(self):
        self.enter: list[float] = []  # thread time when each tick began
        self.exit: list[float] = []  # ... and ended
        self.sample: list[float] = []  # the yardstick's time in each tick
        self.scale: list[float] = []  # reference seconds per second after each tick
        self.base: list[float] = []  # reference seconds up to each tick's end
        self.closed = False
        self._tick()
        self._prev = signal.signal(signal.SIGPROF, self._on_signal)
        # a timer still armed at exit would kill the process with SIGPROF
        atexit.register(self.close)
        self.resume()

    def _tick(self):
        t0 = _clock()
        yardstick()  # the first run after an interrupt finds cold caches
        t1 = _clock()
        yardstick()
        t2 = _clock()
        self.enter.append(t0)
        self.sample.append(t2 - t1)
        self.exit.append(t2)

    def _on_signal(self, signum, frame):
        try:
            self._tick()
        except RecursionError:  # interrupted at the recursion limit
            pass

    def now(self) -> float:
        return _clock()

    def pause(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def close(self):
        """Stop the ticks and take the last one, which ends the log."""
        if self.closed:
            return
        self.pause()
        signal.signal(signal.SIGPROF, self._prev)
        atexit.unregister(self.close)
        self._tick()
        self.closed = True
        base = 0.0
        for i in range(len(self.sample) - 1):
            speed = YARDSTICK_REF_S * 2 / (self.sample[i] + self.sample[i + 1])
            self.scale.append(speed)
            self.base.append(base)
            base += (self.enter[i + 1] - self.exit[i]) * speed
        self.scale.append(self.scale[-1])
        self.base.append(base)

    def _reference(self, t: float) -> float:
        i = max(bisect.bisect_right(self.exit, t) - 1, 0)
        return self.base[i] + (t - self.exit[i]) * self.scale[i]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two readings of ``now()``."""
        if not self.closed:
            raise RuntimeError("close the clock before converting readings")
        return self._reference(end) - self._reference(start)

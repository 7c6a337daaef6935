"""The host's speed, sampled inside the timed region.

On a shared host the same stretch of Python runs up to about 1.5 times
slower while other tenants are busy, and the speed of a quiet moment
itself drifts, for seconds to tens of minutes at a time (README.md,
"Spread and bounds").  Raw wall times then say more about the neighbours
than about the program.  ``HostSpeed`` runs a small fixed reference loop
every ``SAMPLE_EVERY_S`` of wall time from a SIGALRM handler, in the
measured thread itself, and converts a timed interval to reference
seconds: its wall time, minus the sampler's own time inside it, scaled by
how fast the reference loop ran during the interval compared with
``NOMINAL_REFERENCE_NS``.

The process's CPU time would need no sampler, but it slows down with the
wall time: the neighbours slow the program while it is on a CPU, and CPU
time counts that (README.md, "Why not CPU time").
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.02
REFERENCE_ITERATIONS = 1500  # about 0.2 ms, so sampling costs about 1 %
# The reference loop's time on the quiet reference host (README.md,
# "Reference figures"); it fixes the scale of every reported time.
NOMINAL_REFERENCE_NS = 160_000


def reference_ns() -> int:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc ^= (i * 2654435761) & 0xFFFF
    return time.perf_counter_ns() - start


def reference_seconds(wall_ns: int, references_ns) -> float:
    """Wall time scaled to the nominal speed of the reference loop, given
    the loop's times measured while the wall time ran."""
    speed = statistics.fmean(NOMINAL_REFERENCE_NS / d for d in references_ns)
    return wall_ns * speed / 1e9


class HostSpeed:
    """Reference samples taken while the ``with`` block runs."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.durations: list[int] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.durations.append(reference_ns())
        self.starts.append(start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def interval_s(self, start_ns: int, end_ns: int) -> float:
        """Reference seconds of an interval inside the ``with`` block.  The
        samples next to it also count, so a short interval still has one."""
        lo = bisect.bisect_left(self.starts, start_ns)
        hi = bisect.bisect_left(self.starts, end_ns)
        wall = end_ns - start_ns - sum(self.durations[lo:hi])
        return reference_seconds(wall, self.durations[max(lo - 1, 0):hi + 1])

"""Machine-speed probe, for times that do not swing with a shared CPU.

On a machine shared with other tenants the same pure-Python work can take
twice as long in one second as in the next, and a 20 s run averages that
out only to about +-15%.  So the benchmark runs a fixed probe (PROBE_ITERS
dict updates, about 1.2 ms) from a SIGALRM handler every INTERVAL_S of wall
time, in the benchmark's own thread, between the bytecodes of whatever
parres is doing, and reports every time rescaled to a machine on which the
probe takes PROBE_REF_S:

    normalized = (raw - probe time inside the interval)
                 * PROBE_REF_S / median(probe times around the interval)

"Around" is the probes that ran inside the interval, or the NEAREST probes
by start time when fewer did.  The raw times and the factor are kept in the
results file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_ITERS = 10000
PROBE_REF_S = 0.0012
INTERVAL_S = 0.1
NEAREST = 5


def _probe_work():
    d = {}
    for i in range(PROBE_ITERS):
        k = i & 255
        d[k] = (d.get(k, 0) + i * 7) % 32003
    return d


class SpeedProbe:
    """Probe samples (start, duration) taken from a periodic SIGALRM."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return lo, hi

    def overhead(self, t0, t1):
        """Probe seconds spent inside [t0, t1)."""
        lo, hi = self._window(t0, t1)
        return sum(self.durations[lo:hi])

    def factor(self, t0, t1):
        """PROBE_REF_S / median probe time around [t0, t1)."""
        lo, hi = self._window(t0, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = lo + NEAREST
        return PROBE_REF_S / statistics.median(self.durations[lo:hi])

    def normalize(self, t0, t1, raw):
        """`raw` seconds measured over [t0, t1), probe time removed, rescaled."""
        return (raw - self.overhead(t0, t1)) * self.factor(t0, t1)

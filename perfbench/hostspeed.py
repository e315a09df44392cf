"""Host-speed probe: a fixed pure-Python kernel timed ten times a second.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent within seconds, for the program and for any other code
alike.  To take that out of the gated metrics, the workload process runs
`kernel()` (fixed work in the program's own style: Fraction arithmetic,
dicts keyed by exponent tuples, big-integer products; it never calls
schemealg) from a SIGALRM handler every PERIOD_S seconds; Python runs the
handler in the main thread, between two bytecodes.  A job's time is its
wall time minus the kernel runs inside it, scaled by NOMINAL_S over the
mean kernel time across the job and PAD_S seconds either side of it; the
pad gives a job of a few milliseconds about ten kernel runs, where one run
before and one after made the factor noisier than the host.  The result is
the job's time on a host that runs the kernel in NOMINAL_S seconds.  A
change to the program moves scaled and raw times by the same factor.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.003  # kernel time on the reference host (2 vCPUs, Python 3.11.7)
PERIOD_S = 0.1
PAD_S = 0.5


def kernel():
    """Fixed work of about 3 ms; returns a checksum so nothing is skipped."""
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 120):
        acc += x / i - Fraction(i, i + 7)
        x = x * Fraction(7, 5) % 11
    d = {}
    for i in range(600):
        k = (i % 7, i % 5, i % 3)
        d[k] = d.get(k, 0) + i * i
    n = 3**400
    for i in range(40):
        n = (n * n) % (7**300 + i)
    return acc.numerator % 97 + n % 89 + len(d)


def kernel_times(runs=10, warmup=3):
    """Seconds of `runs` kernel runs timed here and now, after `warmup`
    untimed ones (the first runs after another process ran are slower)."""
    for _ in range(warmup):
        kernel()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


class HostProbe:
    """While entered, times `kernel()` every PERIOD_S seconds of wall time.

    `samples` holds (start, end) perf_counter() pairs in the order taken.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def wait_past(self, t):
        """Block until a kernel run has started after time `t`."""
        while not self.samples or self.samples[-1][0] < t:
            time.sleep(PERIOD_S / 4)

    def inside(self, t0, t1):
        """Seconds of kernel runs that lie within [t0, t1]."""
        return sum(e - s for s, e in self.samples if t0 <= s and e <= t1)

    def factor(self, t0, t1):
        """NOMINAL_S over the mean kernel time across [t0 - PAD_S, t1 + PAD_S];
        call it after wait_past(t1 + PAD_S)."""
        window = [e - s for s, e in self.samples if t0 - PAD_S <= s and e <= t1 + PAD_S]
        return NOMINAL_S / statistics.mean(window)

"""Speed-normalised time: wall time rescaled to a fixed machine speed.

On a small machine shared with other tenants, a neighbour can halve this
process's speed for tens of seconds at a time, so the raw wall time of the
same pass moves by up to 2x between runs.  The benchmark therefore measures
the machine's current speed with a fixed pure-Python reference loop (tuple
sums into a set: the kind of work the program does, but none of its code)
and reports each time as

    raw seconds * mean over nearby samples of (REF_NOMINAL_S / reading),

the time the work would take at the speed where one reference loop takes
REF_NOMINAL_S (about the uncontended speed of a 2-vCPU Xeon VM).  A change
to the program moves the normalised time exactly as it moves the raw time;
only the machine's speed is divided out.  Raw times are reported next to
the normalised ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds between speed samples in a worker; how many samples inside an
# interval give its speed on their own, and otherwise how far around it
# samples count; and the reading of the reference loop taken as nominal speed.
SAMPLE_S = 0.025
MIN_INSIDE = 4
WINDOW_S = 0.25
REF_NOMINAL_S = 0.0011

_REF_POINTS = [(i % 7, i // 7 % 5, i // 35) for i in range(40)]


def reference_seconds() -> float:
    """Time one run of the fixed reference loop (about 1 ms)."""
    start = time.perf_counter()
    sums = set()
    for a in _REF_POINTS:
        for b in _REF_POINTS:
            sums.add(tuple(x + y for x, y in zip(a, b)))
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the machine's speed from a SIGALRM interval timer.

    Runs in the main thread between bytecodes, so it needs no extra thread
    or process.  Each sample is (start, end, reading); `normalise` leaves
    the sampler's own time out of the intervals it rescales.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reading = reference_seconds()
        self.samples.append((start, time.perf_counter(), reading))
        self._starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def normalise(self, start: float, end: float) -> tuple[float, float]:
        """(raw, normalised) seconds of the interval [start, end].

        Raw leaves out the samples taken inside the interval.  The speed is
        the mean over those samples when there are MIN_INSIDE of them, and
        otherwise over the samples from WINDOW_S before the interval to
        WINDOW_S after it: the machine's speed mostly holds for seconds at a
        time, while one 1 ms reading is noisy.
        """
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        inside = [s for s in self.samples[lo:hi] if s[1] <= end]
        near = inside
        if len(inside) < MIN_INSIDE:
            lo = bisect.bisect_left(self._starts, start - WINDOW_S)
            hi = bisect.bisect_right(self._starts, end + WINDOW_S)
            near = self.samples[max(min(lo, hi - 1), 0):max(hi, 1)]
        raw = end - start - sum(e - b for b, e, _ in inside)
        speed = sum(REF_NOMINAL_S / r for _, _, r in near) / len(near)
        return raw, raw * speed

    def speed(self) -> float:
        """Median machine speed over the samples (1 = nominal)."""
        return statistics.median(REF_NOMINAL_S / r for _, _, r in self.samples)


def spot_speed() -> tuple[float, float]:
    """(speed, seconds spent measuring it) right now, from the faster of two
    readings; for a short-lived process that cannot wait for samples."""
    start = time.perf_counter()
    reading = min(reference_seconds(), reference_seconds())
    return REF_NOMINAL_S / reading, time.perf_counter() - start

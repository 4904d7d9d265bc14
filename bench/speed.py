"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark's baseline machine is a shared virtual machine whose speed
swings by up to 2x, in regimes that last from under a second to minutes,
set by other tenants. The fastest pass of a run does not remove that:
over ten runs it still spread by 20-30% of the median, and the medians of
two sets of runs minutes apart differed by 1.5x.

So a probe samples the interpreter's speed all through the measured
time: a SIGALRM timer interrupts the benchmark every ``INTERVAL_S``
seconds, and the handler times a fixed pure-Python loop (a Gray walk
over 64-bit words, the kind of loop the oracles spend their time in).
The mean probe time over an interval tracks how slow the host was during
it, so a time measured in that interval is reported as

    measured * REF_PROBE_S / mean probe time,

the time it would have taken on a host where the probe loop takes
``REF_PROBE_S``. A change that makes the program faster lowers the
measured time and leaves the probe alone, so it shows in full; a
slowdown the probe shares, such as a slower interpreter, is scaled away,
which is why run.py also prints the unscaled time. The probe costs about
1% of a pass and 4% of a set-up; its own time is subtracted from every
measured interval.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# Set-ups take tens of milliseconds each, so they are sampled more densely.
SETUP_INTERVAL_S = 0.01
STEPS = 1 << 11
# On the baseline machine (2-vCPU Xeon guest, CPython 3.11.7) the probe
# loop takes 0.25-0.5 ms, with the host's load and the state of the caches
# when the timer fires; the reference is a round value in that range.
REF_PROBE_S = 0.5e-3
_WORDS = [(0x9E3779B97F4A7C15 * (k + 1)) & ((1 << 64) - 1) for k in range(STEPS.bit_length())]


def _loop() -> int:
    v = 0
    best = 64
    words = _WORDS
    for i in range(1, STEPS):
        v ^= words[(i & -i).bit_length() - 1]
        w = v.bit_count()
        if w < best:
            best = w
    return best


class Probe:
    """While entered, samples the probe loop every ``interval_s`` seconds.

    ``samples`` holds (wall, cpu) seconds of each probe loop; ``spent_wall``
    and ``spent_cpu`` the total time the handler took, which callers
    subtract from the intervals they time."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        _loop()
        w1, c1 = time.perf_counter(), time.process_time()
        self.samples.append((w1 - w0, c1 - c0))
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scales(self) -> tuple[float, float]:
        """(wall, cpu) factors that scale times measured while the probe
        ran to the reference speed. Takes a sample now if none was taken."""
        if not self.samples:
            self.sample()
        return (REF_PROBE_S / statistics.fmean(s[0] for s in self.samples),
                REF_PROBE_S / statistics.fmean(s[1] for s in self.samples))

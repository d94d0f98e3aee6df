"""Host pace: a fixed pure-Python kernel timed beside every timed interval.

The shared host these runs were tuned on changes speed by up to 2x from
one second to the next: neighbouring load slows every instruction
(process CPU time tracks wall time and no steal time is reported), and
a loaded stretch can outlast a whole run.  The probe below does not
touch the platform, so its time measures only the host's pace.

A time taken while the probe read ``p`` is put at the reference pace by
multiplying it by ``(REFERENCE_S / p) ** EXPONENT`` (:func:`at_reference`).
:func:`rescale` does so for the timed segments and calls, whose probes
run right before each segment; :class:`Sampler` does so for a set-up,
which is one call that cannot be cut into segments.  A slower program is
slower at every pace, so it still reads slower; what drops out is most
of the host's drift.
"""

import signal
import time

from metrics import median

ROUNDS = 3000
#: The probe time the reported seconds are scaled to; it sets only the
#: scale.  On the host the bounds were set on, the fastest probe of a run
#: was 0.36 ms in a calm hour, 0.46-0.53 ms in loaded ones and 0.88 ms in
#: a run that never saw a calm moment.
REFERENCE_S = 0.00048
#: Workload times follow the probe's time to about this power.  Over
#: replays of one segment the least-squares slope of log time on log
#: pace was 0.70-0.75 (r 0.79-0.91), biased low by the noise in one
#: segment's pace; between whole runs at a calm and a moderately loaded
#: pace (median probe 0.44 vs 0.59-0.97 ms) service and store moved
#: with a slope of 0.95-1.05, while a 1.0 rescale read a heavily loaded
#: run (median probe 1.06 ms) 22% fast.
EXPONENT = 0.85
#: The same for a set-up, measured the same way between a calm and a
#: loaded hour: 0.6 for the season pilot build, 0.8 with the service
#: warm-up day, 1.0 for the store preload.  0.85 would read the season
#: set-up 22% fast when loaded; 0.75 keeps every workload within 20%.
SETUP_EXPONENT = 0.75


def probe():
    """Host seconds of a fixed interpreter-bound kernel (0.36-1.1 ms when tuned)."""
    started = time.perf_counter()
    table = {}
    total = 0
    for i in range(ROUNDS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return time.perf_counter() - started


def at_reference(seconds, pace, exponent=EXPONENT):
    """``seconds`` taken while the probe read ``pace``, at the reference pace."""
    return seconds * (REFERENCE_S / pace) ** exponent


def rescale(phase):
    """One repetition's calls and segments at the reference pace.

    A segment's pace is the median of the probes right before and right
    after it and the one before that, so one probe that a passing hiccup
    slowed does not rescale a segment it did not touch.  Returns
    ``(calls, segments, write_segments)``: call index -> seconds, and
    the per-segment lists of :class:`workloads.Phase`.
    """
    probes = phase.probes
    scale = [at_reference(1.0, median(probes[max(0, i - 1):i + 2]))
             for i in range(len(probes))]
    calls = {index: seconds * scale[phase.call_segments[index]]
             for index, seconds in phase.latencies.items()}
    segments = [seconds * s for seconds, s in zip(phase.segments, scale)]
    write_segments = [seconds * s for seconds, s in zip(phase.write_segments, scale)]
    return calls, segments, write_segments


class Sampler:
    """Times a block of code and, every ``INTERVAL_S`` inside it, the probe.

    A ``SIGALRM`` interval timer runs the probe between two bytecodes of
    the block; each stretch of the block between probes is put at the
    pace of the probe that ends it (with ``SETUP_EXPONENT``), and a last
    probe at the end closes the final stretch.  Probe time is not
    counted.  ``seconds`` is the block's host time, ``paced`` the same at
    the reference pace.
    """

    INTERVAL_S = 0.05

    def __enter__(self):
        self.seconds = self.paced = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def _sample(self, _signum=None, _frame=None):
        stretch = time.perf_counter() - self._mark
        pace = probe()
        self.seconds += stretch
        self.paced += at_reference(stretch, pace, SETUP_EXPONENT)
        self._mark = time.perf_counter()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

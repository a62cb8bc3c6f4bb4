"""Machine-speed calibration for the benchmark's time metrics.

The reference machine is a shared 2-vCPU VM whose speed changes by up to
2x, independently of the program, on scales from a tenth of a second to
minutes.  A fixed pure-Python loop (a "round") slows down and speeds up
with it.  So while a job runs, a timer signal runs one round every
`PERIOD_S` seconds, and rounds also run back to back for `EDGE_S` seconds
before and after the job.  The job's time, less the time spent in rounds,
is scaled to the reference speed:

    reference seconds = job seconds / slowness
    slowness = mean round seconds around and during the job / REFERENCE_ROUND_S

On the reference machine at its usual speed the two times are about the
same.  A program change moves the job's time but not the rounds', so it
shows in the scaled time as it would in the raw one.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# Mean seconds of one `_round()` on the reference machine (Python 3.11.7,
# 2-vCPU Intel Xeon VM), a typical value of samples taken over minutes.
REFERENCE_ROUND_S = 0.0012

# A round every PERIOD_S seconds of a job: about 5% of its time.
PERIOD_S = 0.02
# Seconds of back-to-back rounds before and after each job.
EDGE_S = 0.1
# The mean round time of the edges counts as this many rounds of the job.
EDGE_WEIGHT = 10


def _round(n: int = 4000) -> int:
    """A fixed mix of the interpreter work graphconf does: small-integer
    arithmetic, dict stores and list appends."""
    s, d, row = 0, {}, []
    for i in range(n):
        s = (s * 31 + i) % 1000003
        d[i & 1023] = s
        if i & 7 == 0:
            row.append(s)
    return s + len(row)


def _timed_round() -> float:
    t0 = perf_counter()
    _round()
    return perf_counter() - t0


def edge_seconds() -> float:
    """Mean seconds of one round, run back to back for about EDGE_S."""
    times, end = [], perf_counter() + EDGE_S
    while not times or perf_counter() < end:
        times.append(_timed_round())
    return statistics.fmean(times)


def slowness(round_seconds: float) -> float:
    """How much slower than the reference the machine ran: 1.0 at the
    reference speed, 2.0 at half of it."""
    return round_seconds / REFERENCE_ROUND_S


class Meter:
    """Times jobs one after another, each with its slowness."""

    def __init__(self):
        self._before = edge_seconds()

    @contextmanager
    def job(self):
        """Time the body; yields a dict that gets `seconds` (the body's own
        time, rounds excluded) and `slowness` when the body ends."""
        rounds: list[float] = []

        def sample(signum, frame):
            rounds.append(_timed_round())

        result = {}
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            after = edge_seconds()
            edges = (self._before + after) / 2
            self._before = after
            mean = (EDGE_WEIGHT * edges + sum(rounds)) / (EDGE_WEIGHT + len(rounds))
            result["seconds"] = elapsed - sum(rounds)
            result["slowness"] = slowness(mean)

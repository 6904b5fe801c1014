"""Host-speed probes, so that timings read in seconds at a fixed speed.

The benchmark's host is a small guest on a shared machine. Its speed
switches between levels up to about 1.6 times apart, in spells from under
a second to minutes, whatever the program does. A median over a run
cannot remove a spell that covers the run. So every measured
``mixedhmc run`` process also runs a fixed probe, ``probe_work``: about
2 ms of the kinds of work the sampler does. A ``SIGALRM`` timer starts the
probe every ``INTERVAL_S`` seconds, between bytecodes of whatever the
program is running, so the probes sample the whole run evenly and need no
hook into the program's structure.

``ref_seconds`` then turns a phase of the run into the seconds it would
have taken at the reference speed, the speed at which one probe takes
``REF_PROBE_S``. Each stretch of program time between two probes is
scaled by ``REF_PROBE_S`` over the mean probe duration around it. The
probes' own time is left out. A change to the program moves the program's
stretches and not the probes, since the probe is the benchmark's code.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.04
# Each stretch of program time is scaled by the mean probe duration over
# this many probes on either side of it, about 0.5 s: a single 2 ms probe
# is too noisy, and a spell shorter than the window is rare.
SMOOTH_PROBES = 12
# A fixed scale, near the probe duration on the reference host (a 2-vCPU
# Intel Xeon guest at 2.1 GHz, Python 3.11.7, numpy 2.4.6): there the
# probes' speed against it reads 1.0-1.4 from spell to spell.
REF_PROBE_S = 0.0017

_MATRIX = np.cos(np.arange(100 * 20).reshape(100, 20) * 0.37)


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_work():
    """About 2 ms of work in three parts, each like one the sampler does:
    operations on short vectors, products with a 100 x 20 matrix, and plain
    Python arithmetic.  Together they slow down in a spell about as much as
    each of the three workloads does."""
    a = np.linspace(0.1, 1.0, 24)
    b = a[::-1].copy()
    s = 0.0
    for _ in range(200):
        c = a * 0.5 + b
        s += float(c @ a) + float(np.exp(-c).sum())
        a, b = b, c * 0.3
    w = np.ones(20)
    for _ in range(100):
        r = _MATRIX @ w
        s += float(np.exp(-np.abs(r)).sum())
        w = w * 0.999 + 0.001
    t = 0
    for i in range(8000):
        t += i % 7
    return s + t


class SpeedMeter:
    """Runs ``probe_work`` on a wall-clock timer and records when each
    probe started and ended, on the ``CLOCK_MONOTONIC`` clock."""

    def __init__(self):
        self.probes = []
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = clock()
        probe_work()
        self.probes.append((start, clock()))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer; a run shorter than one interval still gets one
        probe, so that its phases can be scaled."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.probes:
            self._on_alarm(None, None)


def ref_seconds(probes, start, end):
    """Seconds the program spent in [start, end] outside the probes, scaled
    to the reference speed; and the same seconds unscaled.

    A stretch between two probes is scaled by the mean of their smoothed
    durations; a stretch before the first probe or after the last, by that
    probe's."""
    if not probes:
        raise ValueError("no speed probes were recorded")
    durations = np.array([stop - begin for begin, stop in probes])
    sums = np.concatenate([[0.0], np.cumsum(durations)])
    index = np.arange(len(probes))
    lo = np.maximum(index - SMOOTH_PROBES, 0)
    hi = np.minimum(index + SMOOTH_PROBES + 1, len(probes))
    smooth = (sums[hi] - sums[lo]) / (hi - lo)
    stretches = [(-np.inf, probes[0][0], smooth[0], smooth[0])]
    stretches += [(probes[i][1], probes[i + 1][0], smooth[i], smooth[i + 1])
                  for i in range(len(probes) - 1)]
    stretches.append((probes[-1][1], np.inf, smooth[-1], smooth[-1]))
    scaled = raw = 0.0
    for lo, hi, before, after in stretches:
        overlap = min(hi, end) - max(lo, start)
        if overlap > 0:
            raw += overlap
            scaled += overlap * 2.0 * REF_PROBE_S / (before + after)
    return float(scaled), raw

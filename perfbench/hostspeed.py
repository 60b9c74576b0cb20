"""How fast the host runs this machine's CPUs, and times scaled by it.

On a shared virtual machine the host runs the guest's CPUs at a speed
that drifts by tens of percent within a minute, with the load of other
tenants: the same warm ``repro evaluate`` took from 0.8 to 1.5 s in one
sequence of runs on a 2-CPU VM, in plateaus that last 10 to 60 s.  A
run of the benchmark lands on one or two plateaus, so its raw times
follow the host, not the program.  The benchmark therefore measures the
host's speed beside the workload and scales each time of CPU work to a
reference speed, at which :func:`unit` takes :data:`REFERENCE_S` of CPU
time.  In the sequence above, the medians of blocks of ten consecutive
runs had an interquartile range of 0.29 of their median as measured,
and of 0.08 scaled.

One probe runs on each CPU the workload may use, pinned to it: the host
speeds of two CPUs of one VM agree only loosely from second to second.
A probe runs :func:`unit` every :data:`PERIOD_S` at the lowest priority
and records the CPU time it took.  CPU time, not wall time: the probe
reads how fast the host runs its CPU, never how long the workload kept
the probe waiting for it.  It takes at most 4% of an idle CPU, and about
1.5% of one the workload keeps busy::

    python3 perfbench/hostspeed.py OUT CPU     # until killed or orphaned
"""

import bisect
import math
import os
import statistics
import sys
import time

#: CPU time of one :func:`unit` at the reference speed
REFERENCE_S = 0.0035
#: pause between units
PERIOD_S = 0.1
#: units a duration is scaled by at least, widened around it if shorter
MIN_UNITS = 5
#: the host speed is taken as constant over each second of the clock
PIECE_S = 1.0


def unit(steps=20000):
    """A fixed piece of pure-Python work: dictionary stores and integer
    arithmetic, as in the interpreter loops the program runs."""
    total, table = 0, {}
    for step in range(steps):
        table[step & 511] = total
        total = (total * 31 + step) % 1000003
    return total


def probe(out_path, cpu):
    """Write ``<monotonic start> <CPU seconds>`` per unit until killed or
    orphaned."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    with open(out_path, "w", buffering=1) as out:
        while os.getppid() == parent:
            started = time.monotonic()
            begun = time.thread_time()
            unit()
            out.write("%.6f %.9f\n" % (started, time.thread_time() - begun))
            time.sleep(PERIOD_S)


class HostSpeed:
    """The probe's units, and durations scaled by them.

    A duration is a list of ``(seconds, started)`` parts, ``started``
    being a ``time.monotonic()`` reading; the time of several separate
    steps is the concatenation of their parts.
    """

    def __init__(self, units):
        units = sorted(units)
        self.starts = [started for started, _ in units]
        self.cpu = [cpu for _, cpu in units]
        self._pieces = {}

    @classmethod
    def read(cls, paths):
        """The units the probes wrote to *paths*, pooled."""
        units = []
        for path in paths:
            try:
                with open(path) as handle:
                    for line in handle:
                        if line.endswith("\n"):  # the last may be cut short
                            started, cpu = line.split()
                            units.append((float(started), float(cpu)))
            except OSError:
                pass
        return cls(units)

    def __len__(self):
        return len(self.cpu)

    def factor(self, begin, end):
        """Reference over host speed for the time from *begin* to *end*:
        :data:`REFERENCE_S` over the median CPU time of the units that
        started then, widened to the nearest :data:`MIN_UNITS`."""
        if not self.cpu:
            raise ValueError("no host speed units")
        low = bisect.bisect_left(self.starts, begin)
        high = bisect.bisect_right(self.starts, end)
        while high - low < MIN_UNITS and (low > 0
                                          or high < len(self.cpu)):
            low, high = max(0, low - 1), min(len(self.cpu), high + 1)
        return REFERENCE_S / statistics.median(self.cpu[low:high])

    def scale(self, parts):
        """A duration's seconds at the reference speed.

        Each second of the clock (:data:`PIECE_S`) has one factor, and a
        part is scaled second by second: the median over a span whose
        first half ran fast and second half slow would snap to one half.
        One clock makes a time within another scale to less than it.
        """
        total = 0.0
        for seconds, started in parts:
            end = started + seconds
            piece = math.floor(started / PIECE_S)
            while piece * PIECE_S < end:
                overlap = (min(end, (piece + 1) * PIECE_S)
                           - max(started, piece * PIECE_S))
                total += overlap * self._piece_factor(piece)
                piece += 1
        return total

    def _piece_factor(self, piece):
        if piece not in self._pieces:
            self._pieces[piece] = self.factor(piece * PIECE_S,
                                              (piece + 1) * PIECE_S)
        return self._pieces[piece]


def raw(parts):
    """A duration's seconds as measured."""
    return sum(seconds for seconds, _ in parts)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        sys.exit(2)
    probe(sys.argv[1], int(sys.argv[2]))

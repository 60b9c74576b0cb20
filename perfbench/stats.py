"""Pure helpers of the benchmark: percentiles, failure accounting and the
seeded serve request sequence.  Nothing here starts a process."""

import math
import random
import statistics

#: percentiles tried for the tail, highest first.  p99 and above are left
#: out: on a shared virtual machine a burst of host CPU steal in a 15 s
#: window moves p99 of the serve workload by up to 2x from run to run,
#: p95 by about 10%.  Run records still list p99.
TAIL_PERCENTILES = (95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(ordered, percentile):
    """The nearest-rank *percentile* of an already sorted list."""
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values, beyond=TAIL_BEYOND):
    """``(percentile, value, samples_beyond)`` for the highest percentile
    of :data:`TAIL_PERCENTILES` with at least *beyond* samples above it.

    With fewer than ``2 * beyond`` samples no percentile qualifies; the
    median is returned then, with the samples beyond it, so the record
    always states how much evidence the tail rests on.
    """
    if not values:
        return 50.0, 0.0, 0
    ordered = sorted(values)
    for percentile in TAIL_PERCENTILES:
        value, above = nearest_rank(ordered, percentile)
        if above >= beyond:
            return percentile, value, above
    return 50.0, median(ordered), len(ordered) // 2


class Tally:
    """Attempts and their outcomes.

    Every attempt is one of ``ok``, ``timeout`` (no complete reply within
    the client's limit), ``refused`` (429 or 503), ``error`` (any other
    non-200 status, no connection, or a command that exited non-zero)
    or ``wrong`` (an output that differs from its reference).  All but
    ``ok`` are failures.
    """

    OUTCOMES = ("ok", "timeout", "refused", "error", "wrong")

    def __init__(self):
        self.outcomes = dict.fromkeys(self.OUTCOMES, 0)

    def record(self, outcome):
        if outcome not in self.outcomes:
            raise ValueError("unknown outcome %r" % outcome)
        self.outcomes[outcome] += 1

    @property
    def attempts(self):
        return sum(self.outcomes.values())

    @property
    def failed(self):
        return self.attempts - self.outcomes["ok"]

    def ok_share(self):
        return self.outcomes["ok"] / self.attempts if self.attempts else 0.0


def classify(status, result_text, expected_text):
    """The outcome of one HTTP attempt.

    *status* is the HTTP status, ``None`` for a timed-out attempt and 0
    when no connection or no parsable reply was had.  *result_text* is
    the canonical JSON of the reply's result, compared byte for byte
    with *expected_text*.
    """
    if status is None:
        return "timeout"
    if status in (429, 503):
        return "refused"
    if status != 200:
        return "error"
    return "ok" if result_text == expected_text else "wrong"


def request_sequence(templates, seed, openers):
    """The serve workload's requests, as template indices.

    The first ``len(openers)`` entries are *openers* — one per client,
    each an ``evaluate`` so that the first wave starts the worker pool —
    followed by endless rounds, each a seeded shuffle of every template.
    The same seed gives the same sequence.
    """
    rng = random.Random(seed)
    yield from openers
    order = list(range(len(templates)))
    while True:
        rng.shuffle(order)
        yield from order

"""Durations at reference machine speed.

The machine the benchmark runs on is shared: the same CPU-bound code runs up
to half again as long from one minute to the next, and memory-heavy code
(the program) slows more than a tight loop does. That is wider than any
bound a regression check can use. So every timed call is recorded as (wall
seconds, CPU seconds of this process), and a fixed probe that does the
program's kind of work (split lines, build rows, fill a dict of lists) is
run right before and right after it (and, inside a build on one thread,
every few hundred fetches: see SpeedSampler). A duration is reported as

    off-CPU time + CPU time * NOMINAL_PROBE_S / mean(probes)

Off-CPU time (sleeps, politeness waits) is left as measured; only the CPU
part is scaled to the speed at which the probe takes NOMINAL_PROBE_S. The
raw wall-clock times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections.abc import Sequence

# Median probe time on the reference machine (2 cores, Python 3.11.7).
NOMINAL_PROBE_S = 0.0081
PROBE_REPEATS = 3
_FIELDS = ("class", "property", "relation")
_PROBE_TEXT = "\n".join(
    f"tok{i % 2000}\t{_FIELDS[i % 3]}\t{i % 4000}\t{1 + i % 3}" for i in range(6000)
)

Duration = tuple[float, float]  # (wall seconds, CPU seconds)


def _probe_once() -> float:
    # The probe must not change when the program under test is collected.
    # The collector is off while the probe's rows are alive, so none of them
    # is promoted. Rows are lists and keys strings, not tuples: a freed tuple
    # goes to a free list without lowering the young-generation count, so
    # thousands of them would bring the next collection forward.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        rows = []
        table: dict[str, list] = {}
        for line in _PROBE_TEXT.splitlines():
            token, field, doc, tf = line.split("\t")
            row = [token, field, int(doc), int(tf)]
            rows.append(row)
            table.setdefault(token + "\t" + field, []).append(row)
        del rows, table
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def probe() -> float:
    """CPU seconds the probe takes now (median of a few repeats)."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


def factor(before: float, after: float, inside: Sequence[float] = ()) -> float:
    """CPU-time scale for a call made between two probes, with ``inside``
    the probes taken while it ran."""
    speeds = [before, after, *inside]
    return NOMINAL_PROBE_S / (sum(speeds) / len(speeds))


def at_reference(duration: Duration, scale: float) -> float:
    wall, cpu = duration
    return max(wall - cpu, 0.0) + cpu * scale


def clock() -> Duration:
    return time.perf_counter(), time.process_time()


def since(start: Duration) -> Duration:
    """(wall, CPU) seconds since ``start``, a ``clock()`` reading."""
    wall, cpu = clock()
    return wall - start[0], cpu - start[1]


class SpeedSampler:
    """A transport that runs one probe every ``every`` fetches.

    Speed moves within a second as much as between minutes, so a build that
    runs for seconds is scaled by probes spread over its whole length, not
    only by the two at its ends. The probes' own time is taken back out of
    the build's time with ``take``. Only for a build on one thread: a probe
    on one crawl worker would stall it while the others run on.
    """

    def __init__(self, inner, every: int):
        self.inner = inner
        self.every = every
        self.fetches = 0
        self.samples: list[float] = []
        self.spent: Duration = (0.0, 0.0)

    def fetch(self, url, max_body_bytes, issued_at_ms=None):
        self.fetches += 1
        if self.fetches % self.every == 0:
            start = clock()
            self.samples.append(_probe_once())
            took = since(start)
            self.spent = (self.spent[0] + took[0], self.spent[1] + took[1])
        return self.inner.fetch(url, max_body_bytes, issued_at_ms=issued_at_ms)

    def take(self, took: Duration) -> tuple[Duration, list[float]]:
        """``took`` without the probes run since the last take, and those probes."""
        samples, spent = self.samples, self.spent
        self.samples, self.spent = [], (0.0, 0.0)
        return (took[0] - spent[0], took[1] - spent[1]), samples

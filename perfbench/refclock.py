"""Process CPU time rescaled to a reference host speed.

The benchmark runs on shared hosts that disturb a timing in two ways.  The
host takes the CPU away for seconds at a time (a 12 s call measured 16 s of
wall time), which the process CPU time leaves out; and neighbours slow the
execution itself by up to 1.8x, in spells that last from seconds to tens
of minutes, which the CPU time shows as much as the wall time.  A
:class:`RefClock` therefore measures the process CPU time of each call it
times, runs a burst of a fixed reference loop -- pure Python, independent
of the program -- before and after the call, and divides the CPU time by
the slowdown those bursts show against :data:`REFERENCE_LOOP_S`.  The
result reads in seconds at the reference speed; a change to the program
moves it, a change of the host's load moves it much less.
"""

from __future__ import annotations

import random
import statistics
import time

#: Median time of one reference loop on a quiet host (2-vCPU Xeon VM at
#: 2.0 GHz, CPython 3.11).
REFERENCE_LOOP_S = 0.009
#: Reference loops per burst; each burst takes about 0.15-0.25 s.
BURST_LOOPS = 16

_rng = random.Random(20050307)
#: A 100k-entry dict probed in random order: like the program's gain
#: tables and signature memos, the loop is bound by memory lookups as much
#: as by bytecode dispatch, so it slows with the host much as the program
#: does (see NOTES.md, *Steadiness*, for what it does not see).
_TABLE = {_rng.getrandbits(40): index for index in range(100_000)}
_PROBES = _rng.sample(list(_TABLE), 20_000)


def reference_loop() -> int:
    total = 0
    for key in _PROBES:
        total += _TABLE[key] * key % 7
    return total


def burst() -> list[float]:
    """Wall times of :data:`BURST_LOOPS` reference loops."""
    samples = []
    for _ in range(BURST_LOOPS):
        started = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - started)
    return samples


class RefClock:
    """Times calls in seconds at the reference host speed.

    The bursts on either side of a call are shared with the neighbouring
    calls, so a sequence of *n* timed calls runs *n* + 1 bursts.
    """

    def __init__(self):
        self._before = burst()
        #: Wall and process CPU seconds of the timed calls.
        self.raw_s = 0.0
        self.cpu_s = 0.0
        #: Host slowdown measured around each timed call.
        self.slowdowns: list[float] = []

    def time(self, function, *args, **kwargs):
        """``(result, seconds at the reference speed)`` of one call."""
        cpu_started = time.process_time()
        started = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        self.cpu_s += cpu
        self.raw_s += elapsed
        after = burst()
        slowdown = statistics.median(self._before + after) / REFERENCE_LOOP_S
        self.slowdowns.append(slowdown)
        self._before = after
        return result, cpu / slowdown

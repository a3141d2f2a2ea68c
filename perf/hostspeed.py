"""Host-speed readings, so a timing means the same on every run.

The sandbox this benchmark runs in flips, every few seconds, between a
fast and a slow mode about 25 % apart (a neighbour on the same core);
an eight-second run sees one mode or a mix, and raw wall times of the
same code then differ by more than any bound worth setting.  Two
controls make timings comparable:

* the process is pinned to one CPU (``pin()``), so a request never
  waits for a halted second vCPU to be woken — in the slow mode that
  wake-up, not the program, was most of a 0.4 ms query;
* a fixed reference computation (Python bytecode plus numpy, like the
  program) is timed every ``INTERVAL_NS`` between requests, and every
  timing is divided by the host speed at that moment:
  ``reading / NOMINAL_NS``, interpolated between readings.

Reported times are therefore milliseconds *at nominal host speed*.
The reference never runs program code, so a slower program reads as
slower and a slower host does not.

The program does not slow down by quite the factor the reference
does: fitted per pass over identical request lists, its timings move
with the reference's to the power 0.55 (``flight_session``) to 1.1
(``zipf_cached``).  ``SENSITIVITY`` is the middle of that range;
dividing by the full slowdown over-corrected the less sensitive
workloads by up to 10 % between modes.
"""

from __future__ import annotations

import os
from time import perf_counter_ns
from typing import Sequence

import numpy as np

#: Take a reading when this much time has passed since the last one.
INTERVAL_NS = 50_000_000
#: The reference's time on the sandbox's fast mode; the unit of speed.
NOMINAL_NS = 305_000
#: How much of the reference's slowdown the program's timings show.
SENSITIVITY = 0.8

_VECTOR = np.linspace(0.0, 1.0, 12288)


def pin() -> None:
    """Pin this process (and the threads it starts) to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cpus() -> int:
    """How many CPUs this process may run on (the engine's workers)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def reference_ns() -> int:
    """Median of three timings of the fixed reference computation."""
    readings = []
    for _ in range(3):
        started = perf_counter_ns()
        acc = 0
        for i in range(4000):
            acc += i * i % 7
        np.sort((_VECTOR * acc) % 1.0).sum()
        readings.append(perf_counter_ns() - started)
    return sorted(readings)[1]


class SpeedLog:
    """Readings taken between requests, and the factor they imply."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.readings: list[int] = []

    def read(self) -> None:
        self.times.append(perf_counter_ns())
        self.readings.append(reference_ns())

    def tick(self) -> None:
        """Take a reading if one is due (call between requests)."""
        if not self.times or perf_counter_ns() - self.times[-1] >= INTERVAL_NS:
            self.read()

    def slowdown(self, at_ns: Sequence[int]) -> np.ndarray:
        """The program's slowdown (1.0 = nominal host speed) at each
        instant of ``at_ns``: readings smoothed by a running median of
        five (a mode lasts seconds, one reading's jitter does not),
        interpolated, and damped by ``SENSITIVITY``."""
        readings = np.asarray(self.readings, dtype=np.float64)
        if len(readings) >= 5:
            padded = np.pad(readings, 2, mode="edge")
            windows = np.lib.stride_tricks.sliding_window_view(padded, 5)
            readings = np.median(windows, axis=1)
        reference = np.interp(at_ns, self.times, readings) / NOMINAL_NS
        return reference**SENSITIVITY

    def nominal(
        self, started_ns: Sequence[int], elapsed_ns: Sequence[int],
        waits: bool = False,
    ) -> np.ndarray:
        """``elapsed_ns`` as it would read at nominal host speed.

        ``waits``: the ops all compute alike and are otherwise kept
        waiting by another thread (``patch_mix``'s reader, one answer
        size, beside the writer).  Waiting for the GIL is counted in
        switch intervals of wall time whatever the host's speed, so
        only an op's computing — at most the median op — is brought
        to nominal speed and the rest is left as measured."""
        elapsed = np.asarray(elapsed_ns, dtype=np.float64)
        middle = np.asarray(started_ns, dtype=np.float64) + elapsed / 2
        slow = self.slowdown(middle)
        if not waits:
            return elapsed / slow
        computing = np.minimum(elapsed, np.median(elapsed / slow) * slow)
        return elapsed - computing * (1.0 - 1.0 / slow)

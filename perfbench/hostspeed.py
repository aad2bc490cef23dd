"""Host-speed calibration: a fixed pure-Python pass, timed between ops.

The benchmark runs on shared hosts whose speed swings by up to 2x over
tens of seconds as neighbours load the machine.  Process CPU time tracks
wall time through those swings, so the slowdown is in the execution
itself and no statistic taken inside one run removes it: a 25 s run can
sit entirely in a slow or a fast phase.

The calibration pass below exercises what ``repro`` spends its time on
(attribute access, dict and list work, a heap, sorting, JSON and pickle)
and nothing of ``repro`` itself, so a change to the program never moves
it.  It is timed with the garbage collector off, so the size of the
process's heap does not enter.  The host's speed also changes within a
second, so in a closed loop a pass runs before every op and after the
last one, and each op is scaled by the mean of the passes on either side
of it.  That tracked the host far better than samples taken every 0.1 s:
the spread of a second's worth of ``eval_warm`` ops fell from 8 % to 2 %.
Every reported time is multiplied by ``NOMINAL_NS / calibration``, so
times are stated for a host on which one pass takes :data:`NOMINAL_NS`.
"""

from __future__ import annotations

import gc
import heapq
import json
import pickle
import time
from typing import List

#: Host on which reported times hold: one calibration pass takes this long.
NOMINAL_NS = 1_000_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _pass() -> int:
    totals = {}
    items = []
    for index in range(800):
        key = (index * 7919) % 1013
        totals[key] = totals.get(key, 0) + index
        items.append(_Item(key, index))
    heap: list = []
    for item in items[:300]:
        heapq.heappush(heap, (item.key, item.value))
    while heap:
        heapq.heappop(heap)
    ordered = sorted(totals.items(), key=lambda pair: (pair[1], pair[0]))
    json.dumps(ordered)
    pickle.loads(pickle.dumps(items[:150]))
    return len(ordered)


def sample() -> int:
    """Time (ns) of one calibration pass, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter_ns()
        _pass()
        return time.perf_counter_ns() - began
    finally:
        if enabled:
            gc.enable()


def scaled(elapsed: float, calibration: float) -> float:
    """``elapsed`` host time restated for the nominal host."""
    return elapsed * NOMINAL_NS / calibration


class HostClock:
    """Calibration samples taken between the ops of a closed loop.

    :meth:`tick` takes a sample before each op and returns its index;
    :meth:`finish` takes one after the last op, so every op lies between
    two samples and :meth:`around` is their mean.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []

    def tick(self) -> int:
        self.samples.append(sample())
        return len(self.samples) - 1

    def finish(self) -> None:
        self.samples.append(sample())

    def around(self, index: int) -> float:
        return (self.samples[index] + self.samples[index + 1]) / 2

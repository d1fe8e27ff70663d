"""A fixed slice of interpreter work that tells how fast the host is *now*.

The sandbox this benchmark runs in shares its processor: identical work
takes 10-40 % longer from one second to the next, and a run's median
moves by 15-20 % between runs of the same commit (README, "Host-speed
compensation", has the measurements). Such noise scales every time a
run observes, so the harness runs this probe between cycles and scales
the computing share of each cycle's times by ``REFERENCE_MS / probe
time`` — times are reported as they would read on a host where the probe
takes ``REFERENCE_MS``.
The probe is object-heavy on purpose (dict, tuple, str, deepcopy, JSON):
it slows down with the program, where an arithmetic loop does not.

The probe is part of the benchmark's definition: changing it changes
every compensated number.
"""

from __future__ import annotations

import copy
import json
from time import perf_counter

#: The probe's duration on the reference host, in milliseconds. It only
#: fixes the unit of the reported times: two commits measured on one host
#: compare the same whatever this is.
REFERENCE_MS = 1.1

_TEMPLATE = {"a": [1, 2, 3, {"b": "x" * 20}], "c": {"d": [str(i) for i in range(10)]}, "e": "name"}


class _Box:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def probe() -> float:
    """Seconds the fixed work took just now."""
    started = perf_counter()
    counts = {}
    for index in range(600):
        key = "k%d" % (index & 63)
        counts[key] = counts.get(key, 0) + index
        row = [_Box((index, key)), key, index]
        _text = row[0].value[1].upper() + str(index)
        if index % 20 == 0:
            json.dumps(copy.deepcopy(_TEMPLATE))
    return perf_counter() - started


def factor(before_s: float, after_s: float) -> float:
    """Multiplier that turns CPU time spent between two probes into the
    CPU time the same work takes at reference host speed."""
    return REFERENCE_MS / ((before_s + after_s) * 500.0)


def compensate(elapsed_s: float, cpu_s: float, host_factor: float) -> float:
    """*elapsed_s* at reference host speed.

    Only the share of the interval that this process spent computing
    scales with the speed the probe measured; time spent waiting (a
    sleeping drain loop, a socket round trip, an fsync, a child process
    at work on another core) is left as the clock read it. *cpu_s* is
    the CPU this process consumed in the interval, children excluded.
    """
    share = min(1.0, cpu_s / elapsed_s) if elapsed_s > 0 else 0.0
    return elapsed_s * (1.0 + share * (host_factor - 1.0))

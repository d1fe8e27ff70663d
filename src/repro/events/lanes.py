"""The event processing engine's counter block.

:class:`EngineStats` is the one thing left in this module: the frozen
benchmark harness names it by this path, so it stays here until the
harness is next revised (docs/ENGINE.md).
"""

from __future__ import annotations

import threading
from typing import Dict


class EngineStats:
    """Counters for the event processing engine (exact, cheap to read).

    ``dispatched`` counts deliveries (one per matched callback; a
    supervised retry is not a new one), ``callback_errors`` counts unit
    exceptions (security violations and
    plain bugs alike). Supervised engines (repro.events.supervision)
    additionally count ``retries`` (failed callback re-invocations),
    ``restarts`` (one-for-one unit restarts) and ``dead_lettered``
    (events published to a ``/_dlq.<unit>`` topic); all three stay 0
    without supervision.

    Deliveries run on whichever thread delivers — the publisher, a STOMP
    connection's handler, an HTTP worker, a cluster worker's bridge
    listener — and a CPython ``+=`` is load/add/store that can
    lose increments under preemption, so every mutation goes through
    :meth:`bump` under one internal lock.
    """

    __slots__ = (
        "dispatched",
        "callback_errors",
        "retries",
        "restarts",
        "dead_lettered",
        "_lock",
    )

    def __init__(self) -> None:
        self.dispatched = 0
        self.callback_errors = 0
        self.retries = 0
        self.restarts = 0
        self.dead_lettered = 0
        self._lock = threading.Lock()

    def bump(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "dispatched": self.dispatched,
                "callback_errors": self.callback_errors,
                "retries": self.retries,
                "restarts": self.restarts,
                "dead_lettered": self.dead_lettered,
            }

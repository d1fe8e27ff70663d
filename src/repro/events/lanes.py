"""The event processing engine's counter block.

:class:`EngineStats` lives in this module because the frozen benchmark
harness names it by this path (docs/ENGINE.md).

Deliveries run on whichever thread delivers — the publisher, a STOMP
connection's handler, an HTTP worker, a cluster worker's bridge
listener. A CPython ``+=`` on a shared counter is load/add/store and can
lose increments under preemption, and a lock around each one would be a
lock per delivery. So each delivering thread counts into its own cell,
which no other thread writes: the lock is taken once per thread, to
register the cell, and by reads, which sum the cells. A finished
thread's cell is folded into a retired total by the next registration
or read, so the cells never outnumber the threads that were alive at
the last of them.
"""

from __future__ import annotations

import threading
from typing import Dict, List

#: The counters, in :meth:`EngineStats.snapshot` order.
COUNTERS = ("dispatched", "callback_errors", "retries", "restarts", "dead_lettered")


class _Cell:
    """One thread's counters; only *owner* writes them."""

    __slots__ = COUNTERS + ("owner",)

    def __init__(self, owner: threading.Thread) -> None:
        self.owner = owner
        self.dispatched = 0
        self.callback_errors = 0
        self.retries = 0
        self.restarts = 0
        self.dead_lettered = 0


class _ThreadCells(threading.local):
    """Per thread: ``cell``, registered with *stats* on the thread's first access."""

    def __init__(self, stats: "EngineStats") -> None:
        self.cell = stats._register()


def _total(name: str) -> property:
    return property(lambda stats: stats.snapshot()[name], doc=f"Exact ``{name}`` total.")


class EngineStats:
    """Counters for the event processing engine (exact, cheap to write).

    ``dispatched`` counts deliveries (one per matched callback; a
    supervised retry is not a new one), ``callback_errors`` counts unit
    exceptions (security violations and
    plain bugs alike). Supervised engines (repro.events.supervision)
    additionally count ``retries`` (failed callback re-invocations),
    ``restarts`` (one-for-one unit restarts) and ``dead_lettered``
    (events published to a ``/_dlq.<unit>`` topic); all three stay 0
    without supervision.

    The engine writes through :meth:`cell` (``stats.cell().dispatched
    += 1``); the read-only properties of the same names and
    :meth:`snapshot` sum every thread's cell.
    """

    __slots__ = ("_lock", "_cells", "_retired", "_local")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: List[_Cell] = []
        self._retired = dict.fromkeys(COUNTERS, 0)
        self._local = _ThreadCells(self)

    def cell(self) -> _Cell:
        """The calling thread's counters, for the calling thread to add to."""
        return self._local.cell

    def _register(self) -> _Cell:
        cell = _Cell(threading.current_thread())
        with self._lock:
            self._retire_finished()
            self._cells.append(cell)
        return cell

    def _retire_finished(self) -> None:
        """Fold the cells of finished threads into the retired total (lock held)."""
        live = []
        for cell in self._cells:
            if cell.owner.is_alive():
                live.append(cell)
            else:
                for name in COUNTERS:
                    self._retired[name] += getattr(cell, name)
        self._cells = live

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            self._retire_finished()
            totals = dict(self._retired)
            for cell in self._cells:
                for name in COUNTERS:
                    totals[name] += getattr(cell, name)
        return totals

    dispatched = _total("dispatched")
    callback_errors = _total("callback_errors")
    retries = _total("retries")
    restarts = _total("restarts")
    dead_lettered = _total("dead_lettered")

"""The event processing engine's counter block.

:class:`EngineStats` lives in this module because the frozen benchmark
harness names it by this path (docs/ENGINE.md). Deliveries run on
whichever thread delivers, so it counts in per-thread cells
(:class:`repro.telemetry.Counters`).
"""

from __future__ import annotations

from repro.telemetry import Counters


class EngineStats(Counters):
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

    NAMES = ("dispatched", "callback_errors", "retries", "restarts", "dead_lettered")
    __slots__ = ()

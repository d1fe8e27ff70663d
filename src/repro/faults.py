"""Shared fault-injection harness for every tier of the middleware.

PR 6 taught the storage tier to crash deterministically at named points
(:mod:`repro.storage.faults`); this module generalises that machinery so
the *event* tier — broker publish, the supervised engine, STOMP bridge sockets and federation hops — can be driven through
the same kind of schedule. Three fault shapes are supported at every
named point:

* **crash** (:meth:`ChaosInjector.crash_at`) — raise
  :class:`SimulatedCrash`, a ``BaseException`` nothing in the middleware
  may catch: models the process dying at that instant;
* **error** (:meth:`ChaosInjector.fail_at`) — raise an ordinary
  exception (:class:`InjectedFault` by default, or e.g. an ``OSError``
  for socket points): models a component failing while the process keeps
  running, which is what supervision, retries, dead-letter topics,
  circuit breakers and reconnect loops must absorb;
* **delay** (:meth:`ChaosInjector.delay_at`) — sleep: models a stall
  (slow backend, congested link) without failing.

Instrumented code calls ``chaos.hit("point")`` at each instant. With the
default :data:`NULL_FAULTS` injector every call is a cheap no-op — and
the hot path (engine delivery) skips the call entirely when no injector
is armed, so production deployments pay one attribute check. Arrival
counts are per-point and deterministic wherever execution is serialised
(the synchronous engine, the single bridge sender), which is what lets the supervision property suite replay a
generated fault schedule and predict its outcome.

Point names are dotted, with an optional ``:<qualifier>`` suffix for
per-instance points (e.g. ``engine.callback.before:aggregator``). The
cross-tier matrix lives in :data:`EVENT_CHAOS_POINTS` and is rendered in
docs/ROBUSTNESS.md; the storage-tier points remain in
:data:`repro.storage.faults.CRASH_POINTS`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple


class SimulatedCrash(BaseException):
    """The process died at a named crash point. Not an ``Exception``:
    nothing in the middleware may catch and survive it."""

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class InjectedFault(Exception):
    """The default error an armed :meth:`ChaosInjector.fail_at` raises.

    An ordinary ``Exception`` on purpose: injected *errors* (as opposed
    to crashes) exist to exercise the containment, retry and dead-letter
    paths, which only handle ``Exception``.
    """

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


def _as_arrivals(on) -> Tuple[int, ...]:
    arrivals = (on,) if isinstance(on, int) else tuple(on)
    if not arrivals or any(n < 1 for n in arrivals):
        raise ValueError("arrival numbers count from 1")
    return arrivals


class ChaosInjector:
    """Armable crash/error/delay actions at named points.

    One injector instruments one system under test. ``crash_at`` counts
    arrivals *from arming* (countdown — the contract the storage suite
    established); ``fail_at``/``delay_at`` name **absolute** arrival
    numbers since the injector was created, which is what deterministic
    cross-mode fault schedules need ("fail the 3rd delivery to unit X").
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: point -> remaining arrivals before the crash fires.
        self._crash_points: Dict[str, int] = {}
        #: point -> {absolute arrival number -> exception to raise}.
        self._failures: Dict[str, Dict[int, BaseException]] = {}
        #: point -> {absolute arrival number -> seconds to sleep}.
        self._delays: Dict[str, Dict[int, float]] = {}
        #: point -> total arrivals seen.
        self._arrivals: Dict[str, int] = {}
        self.crashed_at: Optional[str] = None
        self.hits: List[str] = []

    # -- arming ----------------------------------------------------------------

    def crash_at(self, point: str, hit: int = 1) -> "ChaosInjector":
        """Crash on the *hit*-th arrival at *point* (1 = next arrival)."""
        if hit < 1:
            raise ValueError("hit counts from 1")
        with self._lock:
            self._crash_points[point] = hit
        return self

    def fail_at(
        self,
        point: str,
        on: int | Iterable[int] = 1,
        error: Optional[BaseException] = None,
    ) -> "ChaosInjector":
        """Raise *error* on the given absolute arrival number(s) at *point*.

        *error* defaults to a fresh :class:`InjectedFault`; pass e.g.
        ``OSError("...")`` for points whose handlers only catch socket
        errors.
        """
        with self._lock:
            slot = self._failures.setdefault(point, {})
            for arrival in _as_arrivals(on):
                slot[arrival] = error if error is not None else InjectedFault(point)
        return self

    def delay_at(
        self, point: str, seconds: float, on: int | Iterable[int] = 1
    ) -> "ChaosInjector":
        """Sleep *seconds* on the given absolute arrival number(s) at *point*."""
        with self._lock:
            slot = self._delays.setdefault(point, {})
            for arrival in _as_arrivals(on):
                slot[arrival] = seconds
        return self

    # -- instrumentation -------------------------------------------------------

    def hit(self, point: str) -> None:
        delay = None
        with self._lock:
            arrival = self._arrivals.get(point, 0) + 1
            self._arrivals[point] = arrival
            self.hits.append(point)
            remaining = self._crash_points.get(point)
            if remaining is not None:
                if remaining > 1:
                    self._crash_points[point] = remaining - 1
                else:
                    del self._crash_points[point]
                    self.crashed_at = point
                    raise SimulatedCrash(point)
            failures = self._failures.get(point)
            if failures is not None:
                error = failures.pop(arrival, None)
                if error is not None:
                    raise error
            delays = self._delays.get(point)
            if delays is not None:
                delay = delays.pop(arrival, None)
        if delay:
            time.sleep(delay)

    def arrivals(self, point: str) -> int:
        """Total arrivals observed at *point*."""
        with self._lock:
            return self._arrivals.get(point, 0)


class _NullChaos(ChaosInjector):
    """The production no-op injector: a point costs one method call and
    nothing can be armed — arming it is a programming error."""

    def crash_at(self, point: str, hit: int = 1):  # pragma: no cover
        raise RuntimeError("arm a dedicated ChaosInjector, not NULL_FAULTS")

    def fail_at(self, point, on=1, error=None):  # pragma: no cover
        raise RuntimeError("arm a dedicated ChaosInjector, not NULL_FAULTS")

    def delay_at(self, point, seconds, on=1):  # pragma: no cover
        raise RuntimeError("arm a dedicated ChaosInjector, not NULL_FAULTS")

    def hit(self, point: str) -> None:
        return None


#: Shared no-op injector used whenever no chaos is requested.
NULL_FAULTS = _NullChaos()


#: The event-tier chaos points, roughly in the order an event meets them.
#: Points marked ``:<unit>`` are qualified with the receiving principal's
#: name at runtime, so schedules can target one unit deterministically.
#: docs/ROBUSTNESS.md renders this as the chaos-point matrix; the
#: supervision property suite iterates the engine rows.
EVENT_CHAOS_POINTS = (
    "broker.publish",                # publish accepted into the broker
    "engine.deliver:<unit>",         # matched + cleared, handed to the callback
    "engine.callback.before:<unit>", # about to enter the ambient labels + jail
    "engine.callback.after:<unit>",  # callback returned, delivery not yet acked
    "bridge.connect",                # bridge (re)connecting its STOMP client
    "bridge.send",                   # bridge sender thread transmitting an event
    "stomp.client.flush",            # client listener flushing a frame to the socket
    "federation.export",             # gateway exporting the regional aggregate
    "federation.import",             # gateway importing a foreign aggregate
)

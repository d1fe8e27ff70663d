"""One fault injector for every tier of the middleware.

Instrumented code calls ``faults.hit("point")`` at each named instant:
broker publish, the engine's delivery and callback edges, the STOMP
bridge and client sockets, the federation hops, the write-ahead log's
appends, syncs and compactions, the replication checkpoint, and every
``fsync`` of a tracked file. A test arms one of three actions on an
arrival at a point:

* **crash** (:meth:`FaultInjector.crash_at`) — raise
  :class:`SimulatedCrash`, a ``BaseException`` nothing in the middleware
  may catch: models the process dying at that instant;
* **error** (:meth:`FaultInjector.fail_at`) — raise an ordinary
  exception (:class:`InjectedFault` by default, or e.g. an ``OSError``
  for socket and ``fsync`` points): models a component failing while the
  process keeps running, which is what supervision, retries, dead-letter
  topics, circuit breakers and reconnect loops must absorb;
* **delay** (:meth:`FaultInjector.delay_at`) — sleep: models a stall
  (slow backend, congested link) without failing.

All three count arrivals **from arming**: ``on=1`` is the next arrival
at the point, ``on=(2, 3)`` the two after it. Counts are per point and
deterministic wherever execution is serialised (the synchronous engine,
the bridge's single sender, a shard's lock), which is what lets the
property suites replay a generated fault schedule and predict its
outcome.

The durable tier adds a torn append (:meth:`FaultInjector.torn_append`)
and a model of the disk: every
:class:`~repro.storage.faults.TrackedFile` registers with its injector,
which keeps each file's fsynced length, so after a crash a test picks a
**process crash** (:meth:`~FaultInjector.close_all`: every written byte
survives) or a **power loss** (:meth:`~FaultInjector.power_loss`: each
file is cut back to its last fsync, optionally leaving a torn tail).

With the default :data:`NULL_FAULTS` every point is a no-op and arming
raises; the broker and the engine skip their points entirely when it is
installed, so production pays one attribute check. Point names are
dotted, with an optional ``:<qualifier>`` suffix for per-instance points
(e.g. ``engine.callback.before:aggregator``); :data:`FAULT_POINTS` lists
every one.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

if TYPE_CHECKING:
    from repro.storage.faults import TrackedFile


class SimulatedCrash(BaseException):
    """The process died at a named crash point. Not an ``Exception``:
    nothing in the middleware may catch and survive it."""

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class InjectedFault(Exception):
    """The default error an armed :meth:`FaultInjector.fail_at` raises.

    An ordinary ``Exception`` on purpose: injected *errors* (as opposed
    to crashes) exist to exercise the containment, retry and dead-letter
    paths, which only handle ``Exception``.
    """

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


#: Where :meth:`FaultInjector.torn_append` is armed: the WAL reaches it
#: once per append through :meth:`FaultInjector.take_torn_keep`.
TORN_APPEND = "wal.append.torn"


class FaultInjector:
    """Crash, error and delay actions armed on arrivals at named points,
    the torn append, and the tracked-file disk model.

    One injector instruments one system under test.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: point -> {arrival number -> action}: an exception class or
        #: instance to raise, seconds to sleep, or torn-append bytes.
        self._armed: Dict[str, Dict[int, Any]] = {}
        #: point -> total arrivals seen.
        self._arrivals: Dict[str, int] = {}
        self.crashed_at: Optional[str] = None
        #: path -> live TrackedFile.
        self._open_files: Dict[str, "TrackedFile"] = {}
        #: path -> (durable, written) for every file ever tracked.
        self._ledger: Dict[str, Tuple[int, int]] = {}

    # -- arming ----------------------------------------------------------------

    def _arm(self, point: str, on: int | Iterable[int], action: Any) -> "FaultInjector":
        arrivals = (on,) if isinstance(on, int) else tuple(on)
        if not arrivals or any(n < 1 for n in arrivals):
            raise ValueError("arrival numbers count from 1")
        with self._lock:
            seen = self._arrivals.get(point, 0)
            slot = self._armed.setdefault(point, {})
            for n in arrivals:
                slot[seen + n] = action
        return self

    def crash_at(self, point: str, on: int | Iterable[int] = 1) -> "FaultInjector":
        """Raise :class:`SimulatedCrash` on the given arrival(s) at *point*."""
        return self._arm(point, on, SimulatedCrash)

    def fail_at(
        self,
        point: str,
        on: int | Iterable[int] = 1,
        error: Optional[BaseException] = None,
    ) -> "FaultInjector":
        """Raise *error* on the given arrival(s) at *point*.

        *error* defaults to a fresh :class:`InjectedFault`; pass e.g.
        ``OSError("...")`` for points whose handlers only catch socket
        or disk errors.
        """
        return self._arm(point, on, InjectedFault if error is None else error)

    def delay_at(
        self, point: str, seconds: float, on: int | Iterable[int] = 1
    ) -> "FaultInjector":
        """Sleep *seconds* on the given arrival(s) at *point*."""
        return self._arm(point, on, float(seconds))

    def torn_append(self, keep_bytes: Optional[int] = None) -> "FaultInjector":
        """Crash mid-append: the next WAL append writes only a prefix of
        its frame (*keep_bytes*, default half) before the crash — the
        torn-tail record recovery must tolerate."""
        return self._arm(TORN_APPEND, 1, -1 if keep_bytes is None else keep_bytes)

    # -- instrumentation -------------------------------------------------------

    def _take(self, point: str) -> Any:
        """Count one arrival at *point*; the action armed on it, if any."""
        with self._lock:
            arrival = self._arrivals.get(point, 0) + 1
            self._arrivals[point] = arrival
            slot = self._armed.get(point)
            return slot.pop(arrival, None) if slot else None

    def hit(self, point: str) -> None:
        action = self._take(point)
        if action is None:
            return
        if isinstance(action, float):
            time.sleep(action)
            return
        if isinstance(action, type):
            action = action(point)
        if isinstance(action, SimulatedCrash):
            self.crashed_at = point
        raise action

    def take_torn_keep(self, frame_length: int) -> Optional[int]:
        """Bytes of this frame to write before crashing, if armed."""
        keep = self._take(TORN_APPEND)
        if keep is None:
            return None
        return frame_length // 2 if keep < 0 else min(keep, frame_length)

    def arrivals(self, point: str) -> int:
        """Total arrivals observed at *point*."""
        with self._lock:
            return self._arrivals.get(point, 0)

    # -- tracked files ---------------------------------------------------------

    def _track(self, tracked: "TrackedFile", live: bool = True) -> None:
        """Record *tracked*'s lengths; keep it among the open files while *live*."""
        with self._lock:
            self._ledger[tracked.path] = (tracked.durable, tracked.written)
            if live:
                self._open_files[tracked.path] = tracked
            else:
                self._open_files.pop(tracked.path, None)

    def replace(self, source, destination) -> None:
        """``os.replace`` that keeps the durable-length ledger coherent.

        The rename itself is modelled as atomic and durable (no
        directory-entry loss is simulated; see docs/DURABILITY.md)."""
        os.replace(source, destination)
        with self._lock:
            entry = self._ledger.pop(os.fspath(source), None)
            if entry is not None:
                self._ledger[os.fspath(destination)] = entry

    def power_loss(self, keep_tail_bytes: int = 0) -> None:
        """Model a machine failure: discard every byte past each file's
        last fsync. *keep_tail_bytes* preserves that many un-synced tail
        bytes (producing a torn final record) — the page cache flushes
        some sectors of a write and loses the rest.

        Call after the :class:`SimulatedCrash` propagated and before
        recovery reopens the directory.
        """
        with self._lock:
            self.close_all()
            for path, (durable, written) in self._ledger.items():
                if not os.path.exists(path):
                    continue
                keep = min(durable + max(keep_tail_bytes, 0), written)
                with open(path, "r+b") as handle:
                    handle.truncate(keep)

    def close_all(self) -> None:
        """Close every live tracked file (a process crash drops handles)."""
        with self._lock:
            for tracked in list(self._open_files.values()):
                tracked.close()


class _NullFaults(FaultInjector):
    """The production injector: nothing can be armed — arming it is a
    programming error — a point costs one method call, and no file is
    tracked."""

    def _arm(self, point, on, action):
        raise RuntimeError("arm a dedicated FaultInjector, not NULL_FAULTS")

    def hit(self, point: str) -> None:
        return None

    def _take(self, point: str) -> Any:
        return None

    def _track(self, tracked: "TrackedFile", live: bool = True) -> None:
        return None


#: Shared no-op injector used whenever no faults are requested.
NULL_FAULTS = _NullFaults()


#: Every named point, roughly in the order an event or a write meets it.
#: Points marked ``:<unit>`` are qualified with the receiving principal's
#: name at runtime, so schedules can target one unit deterministically.
#: docs/ROBUSTNESS.md renders the table; tests/unit/test_faults.py holds
#: it to the points the code hits.
FAULT_POINTS = (
    "broker.publish",                # publish accepted into the broker
    "engine.deliver:<unit>",         # matched + cleared, handed to the callback
    "engine.callback.before:<unit>", # about to enter the ambient labels + jail
    "engine.callback.after:<unit>",  # callback returned, delivery not yet acked
    "bridge.connect",                # bridge (re)connecting its STOMP client
    "bridge.send",                   # bridge sender thread transmitting an event
    "stomp.client.flush",            # client listener flushing a frame to the socket
    "federation.export",             # gateway exporting the regional aggregate
    "federation.import",             # gateway importing a foreign aggregate
    "wal.append.before",             # nothing written yet
    "wal.append.after",              # frame written, not fsynced
    "wal.sync.before",               # about to fsync a group-commit batch
    "wal.sync.after",                # batch durable, ack not yet returned
    "compact.begin",                 # compaction triggered, tmp log not yet written
    "compact.fsynced",               # tmp log written + fsynced, not renamed
    "compact.renamed",               # compacted log live, append handle reopened
    "checkpoint.before",             # batch applied, checkpoint not yet persisted
    "checkpoint.after",              # checkpoint persisted
    "fsync",                         # a tracked file about to fsync
)

"""Deterministic fault injection for the durability subsystem.

The crash-recovery property suite (``tests/property/test_crash_recovery.py``)
needs to stop the durable store at *exactly* one instrumented instant —
mid-append, between an append and its fsync, on either side of a
compaction's rename, between two shards' batch fsyncs — and then observe
what a recovery from the surviving files yields. Real kill -9 testing
cannot hit those windows deterministically; this module makes every
window a named **crash point**.

How it composes:

* durable-layer code (:mod:`repro.storage.wal`,
  :mod:`repro.storage.recovery`) calls ``faults.hit("wal.append.after")``
  etc. at each instrumented instant, opens files through
  :meth:`FaultInjector.open` and renames through
  :meth:`FaultInjector.replace`. With the default
  :data:`NULL_FAULTS` injector every call is a cheap no-op — production
  stores pay one attribute check per point;
* a test arms the injector (:meth:`FaultInjector.crash_at`,
  :meth:`~FaultInjector.fail_fsync`, :meth:`~FaultInjector.torn_append`)
  and drives writes until :class:`SimulatedCrash` propagates;
* the "crashed process" is then discarded and the test reopens the data
  directory. Two crash models are supported:

  - **process crash** (default): everything ``write()``-n survives —
    the page cache outlives the process;
  - **power loss**: the test calls :meth:`FaultInjector.power_loss`
    first, which truncates every tracked file back to its last fsynced
    length (plus an optional torn tail of partial bytes), modelling a
    machine failure that discards the un-synced page cache.

:class:`SimulatedCrash` subclasses :class:`BaseException` on purpose:
generic ``except Exception`` containment (the continuous replicator's
retry loop, view indexing) must never swallow a simulated crash.

The point/arming machinery is shared with the event tier: this module's
:class:`FaultInjector` extends :class:`repro.faults.ChaosInjector` with
the durability-specific fault shapes (fsync failures, torn appends, the
tracked-file power-loss model); :class:`SimulatedCrash` itself lives in
:mod:`repro.faults` and is re-exported here unchanged.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.faults import ChaosInjector, SimulatedCrash

__all__ = [
    "SimulatedCrash",
    "TrackedFile",
    "FaultInjector",
    "NULL_FAULTS",
    "CRASH_POINTS",
]


class TrackedFile:
    """A writable file whose durable (fsynced) length is tracked.

    All durability-layer writes go through one of these so a simulated
    power loss knows how much of each file the "disk" had actually
    persisted. With no injector attached it degrades to a plain binary
    file plus an ``os.fsync``.
    """

    def __init__(self, path: str, mode: str, injector: Optional["FaultInjector"] = None):
        self._path = os.fspath(path)
        # Unbuffered: every write() is a syscall into the OS page cache,
        # so a process crash (as opposed to power loss) loses nothing —
        # the model the injector's close_all()/power_loss() split assumes.
        self._file = open(self._path, mode, buffering=0)
        self._injector = injector
        size = self._file.tell() if "a" in mode else 0
        self.written = size
        self.durable = size
        if injector is not None:
            injector._track(self)

    @property
    def path(self) -> str:
        return self._path

    def write(self, data: bytes) -> int:
        self._file.write(data)
        self.written += len(data)
        return len(data)

    def flush(self) -> None:
        self._file.flush()

    def fsync(self) -> None:
        """Flush and fsync; advances the durable watermark.

        An armed :meth:`FaultInjector.fail_fsync` raises here *without*
        advancing the watermark — the caller cannot know how much (if
        anything) reached the platter, exactly like a real ``EIO``.
        """
        self._file.flush()
        if self._injector is not None:
            self._injector._fsync_attempt(self._path)
        os.fsync(self._file.fileno())
        self.durable = self.written

    def truncate_to(self, length: int) -> None:
        self._file.flush()
        self._file.truncate(length)
        self.written = length
        self.durable = min(self.durable, length)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()
        if self._injector is not None:
            self._injector._untrack(self)

    @property
    def closed(self) -> bool:
        return self._file.closed


class FaultInjector(ChaosInjector):
    """Armable crash points, fsync failures and torn appends.

    One injector instruments one store (all its shards and checkpoint
    files). Points are hit in deterministic order because every write
    path is either single-threaded in the tests or serialised by the
    shard lock. Crash-point arming and the ``hit``/``hits``/
    ``crashed_at`` surface are inherited from
    :class:`repro.faults.ChaosInjector`.
    """

    def __init__(self) -> None:
        super().__init__()
        self._fsync_failures = 0
        self._torn_keep: Optional[int] = None
        #: path -> live TrackedFile
        self._open_files: Dict[str, TrackedFile] = {}
        #: path -> (durable, written) for every file ever tracked.
        self._ledger: Dict[str, Tuple[int, int]] = {}

    # -- arming ----------------------------------------------------------------

    def fail_fsync(self, times: int = 1) -> "FaultInjector":
        """Make the next *times* fsync attempts raise ``OSError``."""
        with self._lock:
            self._fsync_failures += times
        return self

    def torn_append(self, keep_bytes: Optional[int] = None) -> "FaultInjector":
        """Crash mid-append: the next WAL append writes only a prefix of
        its frame (*keep_bytes*, default half) before the crash — the
        torn-tail record recovery must tolerate."""
        with self._lock:
            self._torn_keep = -1 if keep_bytes is None else keep_bytes
        return self

    # -- instrumentation callbacks ------------------------------------------------

    def take_torn_keep(self, frame_length: int) -> Optional[int]:
        """Bytes of the next frame to write before crashing, if armed."""
        with self._lock:
            keep = self._torn_keep
            if keep is None:
                return None
            self._torn_keep = None
        return frame_length // 2 if keep < 0 else min(keep, frame_length)

    def _fsync_attempt(self, path: str) -> None:
        with self._lock:
            if self._fsync_failures > 0:
                self._fsync_failures -= 1
                raise OSError(f"injected fsync failure on {path}")

    # -- file tracking -------------------------------------------------------------

    def open(self, path, mode: str) -> TrackedFile:
        return TrackedFile(path, mode, injector=self)

    def replace(self, source, destination) -> None:
        """``os.replace`` that keeps the durable-length ledger coherent.

        The rename itself is modelled as atomic and durable (no
        directory-entry loss is simulated; see docs/DURABILITY.md)."""
        os.replace(source, destination)
        with self._lock:
            entry = self._ledger.pop(os.fspath(source), None)
            if entry is not None:
                self._ledger[os.fspath(destination)] = entry

    def _track(self, tracked: TrackedFile) -> None:
        with self._lock:
            self._open_files[tracked.path] = tracked
            self._sync_ledger(tracked)

    def _untrack(self, tracked: TrackedFile) -> None:
        with self._lock:
            self._sync_ledger(tracked)
            self._open_files.pop(tracked.path, None)

    def _sync_ledger(self, tracked: TrackedFile) -> None:
        self._ledger[tracked.path] = (tracked.durable, tracked.written)

    # -- post-crash disk models ----------------------------------------------------

    def power_loss(self, keep_tail_bytes: int = 0) -> None:
        """Model a machine failure: discard every byte past each file's
        last fsync. *keep_tail_bytes* preserves that many un-synced tail
        bytes (producing a torn final record) — the page cache flushes
        some sectors of a write and loses the rest.

        Call after the :class:`SimulatedCrash` propagated and before
        recovery reopens the directory.
        """
        with self._lock:
            for tracked in list(self._open_files.values()):
                tracked.close()
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


class _NullInjector(FaultInjector):
    """The production no-op injector: crash points cost one method call,
    files are plain tracked files, nothing is armed. Arming it is a
    programming error."""

    def crash_at(self, point: str, hit: int = 1) -> "FaultInjector":  # pragma: no cover
        raise RuntimeError("arm a dedicated FaultInjector, not NULL_FAULTS")

    def fail_at(self, point, on=1, error=None):  # pragma: no cover
        raise RuntimeError("arm a dedicated FaultInjector, not NULL_FAULTS")

    def delay_at(self, point, seconds, on=1):  # pragma: no cover
        raise RuntimeError("arm a dedicated FaultInjector, not NULL_FAULTS")

    def fail_fsync(self, times: int = 1) -> "FaultInjector":  # pragma: no cover
        raise RuntimeError("arm a dedicated FaultInjector, not NULL_FAULTS")

    def torn_append(self, keep_bytes: Optional[int] = None) -> "FaultInjector":  # pragma: no cover
        raise RuntimeError("arm a dedicated FaultInjector, not NULL_FAULTS")

    def hit(self, point: str) -> None:
        return None

    def take_torn_keep(self, frame_length: int) -> Optional[int]:
        return None

    def open(self, path, mode: str) -> TrackedFile:
        return TrackedFile(path, mode, injector=None)

    def replace(self, source, destination) -> None:
        os.replace(source, destination)

    def _fsync_attempt(self, path: str) -> None:
        return None


#: Shared no-op injector used whenever no faults are requested.
NULL_FAULTS = _NullInjector()


#: The instrumented crash points, in the order a write path can reach
#: them. docs/DURABILITY.md renders this as the crash-point matrix; the
#: property suite iterates it.
CRASH_POINTS = (
    "wal.append.before",   # nothing written yet
    "wal.append.after",    # frame written, not fsynced
    "wal.sync.before",     # about to fsync a group-commit batch
    "wal.sync.after",      # batch durable, ack not yet returned
    "compact.begin",       # compaction triggered, tmp log not yet written
    "compact.fsynced",     # tmp log written + fsynced, not renamed
    "compact.renamed",     # compacted log live, append handle reopened
    "checkpoint.before",   # batch applied, checkpoint not yet persisted
    "checkpoint.after",    # checkpoint persisted
)

"""Files whose durable length a fault injector can see.

The crash-recovery property suite (``tests/property/test_crash_recovery.py``)
stops the durable store at one named instant — mid-append, between an
append and its fsync, on either side of a compaction's rename, between
two shards' batch fsyncs — and then observes what a recovery from the
surviving files yields. The points and their arming live in
:mod:`repro.faults`; this module holds the one piece of the harness the
durable layer builds on: every file :mod:`repro.storage.wal` and
:mod:`repro.storage.recovery` write is a :class:`TrackedFile`, which
registers with its injector so that
:meth:`~repro.faults.FaultInjector.power_loss` knows how much of each
file the "disk" had persisted.

:class:`~repro.faults.SimulatedCrash` subclasses :class:`BaseException`
on purpose: generic ``except Exception`` containment (the continuous
replicator's retry loop, view indexing) must never swallow a simulated
crash.
"""

from __future__ import annotations

import os

from repro.faults import NULL_FAULTS, FaultInjector

__all__ = ["TrackedFile"]


class TrackedFile:
    """A writable file whose durable (fsynced) length is tracked.

    All durability-layer writes go through one of these so a simulated
    power loss knows how much of each file was persisted. With
    :data:`~repro.faults.NULL_FAULTS` it is a plain binary file plus an
    ``os.fsync``.
    """

    def __init__(self, path, mode: str, faults: FaultInjector = NULL_FAULTS):
        self._path = os.fspath(path)
        # Unbuffered: every write() is a syscall into the OS page cache,
        # so a process crash (as opposed to power loss) loses nothing —
        # the model the injector's close_all()/power_loss() split assumes.
        self._file = open(self._path, mode, buffering=0)
        self._faults = faults
        size = self._file.tell() if "a" in mode else 0
        self.written = size
        self.durable = size
        faults._track(self)

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

        A fault armed at the ``fsync`` point raises here *without*
        advancing the watermark — the caller cannot know how much (if
        anything) reached the platter, exactly like a real ``EIO``.
        """
        self._file.flush()
        self._faults.hit("fsync")
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
        self._faults._track(self, live=False)

    @property
    def closed(self) -> bool:
        return self._file.closed

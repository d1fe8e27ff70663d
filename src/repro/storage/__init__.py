"""Storage substrates (paper §5.1, Figure 4).

The MDT deployment uses three stores, all reproduced here:

* the **application database** — CouchDB in the paper; a document store
  with ``_id``/``_rev`` MVCC, incremental map views and a
  changes feed (:mod:`repro.storage.docstore`), hash-sharded behind the
  same API (:class:`~repro.storage.docstore.ShardedDatabase`), with
  batched CouchDB-style push replication
  (:mod:`repro.storage.replication`). The application database is durable
  on request: per-shard write-ahead
  logs with group-commit fsync batching, compacted in place
  (:mod:`repro.storage.wal`), crash recovery and persisted replication
  checkpoints (:mod:`repro.storage.recovery`), proven against
  deterministic fault injection (:mod:`repro.faults`,
  :mod:`repro.storage.faults`) — see
  ``docs/DURABILITY.md``;
* the **web database** — SQLite, holding users, privileges and sessions
  (:mod:`repro.storage.webdb`);
* the **main cancer registration database** — simulated relational store
  of patients/tumours/treatments (:mod:`repro.storage.maindb`).

See ``docs/STORAGE.md`` for the sharding scheme, view lifecycle,
replication checkpoint format and clearance-filtering rules.
"""

from repro.storage.docstore import (
    Change,
    Database,
    DocumentDatabase,
    ShardedDatabase,
    ViewRow,
)
from repro.storage.replication import (
    ReplicationResult,
    Replicator,
    replicate,
)
from repro.storage.webdb import WebDatabase
from repro.storage.maindb import MainDatabase, Patient, Treatment, Tumour
from repro.faults import NULL_FAULTS, FaultInjector, SimulatedCrash
from repro.storage.recovery import (
    CheckpointStore,
    close_durable,
    flush_durable,
    open_durable_database,
    snapshot_durable,
)
from repro.storage.wal import ShardDurability, WalWriter, read_wal

__all__ = [
    "Change",
    "Database",
    "DocumentDatabase",
    "ShardedDatabase",
    "ViewRow",
    "Replicator",
    "ReplicationResult",
    "replicate",
    "WebDatabase",
    "MainDatabase",
    "Patient",
    "Tumour",
    "Treatment",
    "FaultInjector",
    "SimulatedCrash",
    "NULL_FAULTS",
    "CheckpointStore",
    "open_durable_database",
    "flush_durable",
    "snapshot_durable",
    "close_durable",
    "ShardDurability",
    "WalWriter",
    "read_wal",
]

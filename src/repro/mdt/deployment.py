"""Deployment of the MDT portal within ECRIC's network (paper Figure 4).

Three zones:

* **Intranet** — main database, event broker, event processing engine,
  the writable application database;
* **DMZ** — the read-only application database replica and the web
  frontend;
* **N3** — the NHS-wide network the MDT coordinators connect from.

The firewall permits only unidirectional connections Intranet → DMZ and
N3 → DMZ; :class:`Firewall` enforces that and every cross-zone hookup in
:class:`MdtDeployment` declares itself, so a mis-wiring (say, the DMZ
opening a connection into the Intranet) fails loudly with
:class:`~repro.exceptions.FirewallError` (requirement S1).
"""

from __future__ import annotations

import os
from typing import FrozenSet, Optional, Set, Tuple

from repro.core.audit import AuditLog
from repro.events.broker import Broker
from repro.events.engine import EventProcessingEngine
from repro.exceptions import FirewallError, SafeWebError
from repro.mdt.aggregator import DataAggregator
from repro.mdt.portal import build_portal
from repro.mdt.producer import DataProducer
from repro.mdt.storage_unit import DataStorage, define_application_views
from repro.mdt.workload import Workload, WorkloadConfig, generate_workload
from repro.storage.docstore import DocumentDatabase, make_database
from repro.storage.recovery import (
    CheckpointStore,
    close_durable,
    flush_durable,
    open_durable_database,
)
from repro.storage.replication import Replicator
from repro.storage.wal import DEFAULT_FSYNC_BATCH
from repro.storage.webdb import WebDatabase
from repro.web.http import TestClient


class Zone:
    """Network zones of Figure 4."""

    INTRANET = "intranet"
    DMZ = "dmz"
    N3 = "n3"


class Firewall:
    """Direction-enforcing firewall between zones."""

    DEFAULT_RULES: FrozenSet[Tuple[str, str]] = frozenset(
        {
            (Zone.INTRANET, Zone.DMZ),  # replication push
            (Zone.N3, Zone.DMZ),  # users reaching the web frontend
        }
    )

    def __init__(self, rules: Optional[Set[Tuple[str, str]]] = None):
        self._rules = frozenset(rules) if rules is not None else self.DEFAULT_RULES
        self.connections: list = []

    def check(self, source: str, target: str) -> None:
        """Authorise a connection attempt or raise :class:`FirewallError`."""
        if source != target and (source, target) not in self._rules:
            raise FirewallError(f"connection {source} -> {target} denied by firewall")
        self.connections.append((source, target))

    def permits(self, source: str, target: str) -> bool:
        return source == target or (source, target) in self._rules


class FirewalledReplicator(Replicator):
    """A replicator whose every pass re-validates the firewall direction."""

    def __init__(self, source: DocumentDatabase, target: DocumentDatabase,
                 firewall: Firewall, source_zone: str, target_zone: str,
                 checkpoint_store=None):
        super().__init__(source, target, checkpoint_store=checkpoint_store)
        self._firewall = firewall
        self._zones = (source_zone, target_zone)

    def replicate(self):
        self._firewall.check(*self._zones)
        return super().replicate()


class MdtDeployment:
    """The full Figure 4 system, wired and ready.

    >>> deployment = MdtDeployment()
    >>> deployment.run_pipeline()          # import → aggregate → replicate
    >>> client = deployment.client_for("mdt1")
    >>> client.get("/").status
    200
    """

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        workload: Optional[Workload] = None,
        audit: Optional[AuditLog] = None,
        check_labels: bool = True,
        check_taint: bool = True,
        csrf_protect: bool = True,
        isolation: bool = True,
        label_checks_in_broker: bool = True,
        label_events: bool = True,
        shards: int = 1,
        cached_auth: bool = False,
        page_cache: bool = False,
        supervision=None,
        storage_breaker=None,
        data_dir: Optional[str] = None,
        fsync_batch: int = DEFAULT_FSYNC_BATCH,
        cluster_workers: int = 0,
    ):
        self.audit = audit if audit is not None else AuditLog()
        self.firewall = Firewall()
        self.workload = workload if workload is not None else generate_workload(config)
        self.directory = self.workload.directory
        # ``data_dir`` makes the deployment durable: both application
        # databases gain per-shard WALs (repro.storage.wal),
        # the web database lives in an SQLite file, and replication
        # checkpoints persist so a restarted deployment resumes from the
        # last completed batch. Default **off**: the §5.3 benchmarks
        # (E1/E3) measure the paper's in-memory cost shape, and fsyncs
        # on the write path would distort it. The workload generator is
        # seeded (seed=42 by default), so reopening a data directory
        # with the same config regenerates identical users/credentials.
        self.data_dir = os.fspath(data_dir) if data_dir is not None else None
        self._durable_dbs: list = []
        if self.data_dir is not None:
            os.makedirs(self.data_dir, exist_ok=True)

        # --- Intranet ---------------------------------------------------------
        self.main_db = self.workload.main_db
        self.broker = Broker(audit=self.audit, label_checks=label_checks_in_broker,
                             raise_errors=True)
        # ``supervision`` (a repro.events.supervision.SupervisionPolicy)
        # arms the retry / dead-letter / restart ladder around every unit
        # callback; ``storage_breaker`` (a CircuitBreaker) guards the
        # data_storage unit's writes. Both default off — the benchmarks
        # pin the unsupervised cost shape — and with no faults occurring
        # a supervised pipeline produces identical results.
        self.engine = EventProcessingEngine(
            broker=self.broker,
            policy=self.workload.policy,
            audit=self.audit,
            isolation=isolation,
            raise_callback_errors=supervision is None,
            supervision=supervision,
        )
        # ``shards > 1`` hash-partitions both application databases; the
        # API (and every enforcement decision) is identical either way.
        if self.data_dir is not None:
            self.app_db = open_durable_database(
                os.path.join(self.data_dir, "app_db"),
                "mdt_app",
                shards=shards,
                fsync_batch=fsync_batch,
            )
            self._durable_dbs.append(self.app_db)
        else:
            self.app_db = make_database("mdt_app", shards=shards)
        define_application_views(self.app_db)

        self.producer = DataProducer(self.main_db, label_events=label_events)
        self.storage = DataStorage(self.app_db, breaker=storage_breaker)
        self.engine.register(self.producer)
        self.engine.register(self.storage)
        # ``cluster_workers=N`` offloads the aggregator — the CPU-bound,
        # jailed, stateless-outside-its-store unit — to the multi-process
        # cluster engine (repro.events.cluster): topic-sharded broker
        # processes plus pinned worker processes over the STOMP fabric.
        # Producer and storage stay local (they touch this process's
        # databases). Default **off**: the synchronous in-process engine
        # remains the executable reference and the benchmarks' baseline.
        self.cluster = None
        if cluster_workers:
            self.cluster = self._start_cluster(cluster_workers, supervision, isolation)
            self.aggregator = None  # lives in a worker process
        else:
            self.aggregator = DataAggregator()
            self.engine.register(self.aggregator)

        # --- DMZ ---------------------------------------------------------------
        if self.data_dir is not None:
            self.dmz_db = open_durable_database(
                os.path.join(self.data_dir, "dmz_db"),
                "mdt_app_dmz",
                shards=shards,
                read_only=True,
                fsync_batch=fsync_batch,
            )
            self._durable_dbs.append(self.dmz_db)
            checkpoint_store = CheckpointStore(
                os.path.join(self.data_dir, "replication-checkpoints.json")
            )
        else:
            self.dmz_db = make_database("mdt_app_dmz", shards=shards, read_only=True)
            checkpoint_store = None
        define_application_views(self.dmz_db)
        self.replicator = FirewalledReplicator(
            self.app_db, self.dmz_db, self.firewall, Zone.INTRANET, Zone.DMZ,
            checkpoint_store=checkpoint_store,
        )
        if self.data_dir is not None:
            self.webdb = WebDatabase(path=os.path.join(self.data_dir, "web.sqlite"))
        else:
            self.webdb = WebDatabase()
        # A recovered web database already holds the workload's users
        # and grants; re-populating would fail on the UNIQUE usernames.
        if not self.webdb.has_users():
            self.workload.populate_webdb(self.webdb)
        # ``page_cache`` and ``cached_auth`` default to off here (and only
        # here): the §5.3 benchmarks (E1/E3) measure page *generation*
        # under the paper's Figure 5 cost profile, where per-request HTTP
        # Basic verification dominates — a warm page cache would short-
        # circuit generation entirely and a warm credential cache removes
        # the component the paper's overhead ratio is normalised against.
        # Deployments serving real traffic opt in to both.
        self.portal, self.middleware = build_portal(
            self.dmz_db,
            self.webdb,
            self.directory,
            audit=self.audit,
            check_labels=check_labels,
            check_taint=check_taint,
            cached_auth=cached_auth,
            page_cache=page_cache,
            csrf_protect=csrf_protect,
            health_probe=self.probe,
        )

    # -- cluster offload ----------------------------------------------------------

    #: Local topics forwarded into the cluster (the aggregator's inputs)
    #: and cluster topics tapped back into the local broker (its outputs,
    #: consumed by the storage unit).
    CLUSTER_FORWARD_TOPICS = ("/patient_report",)
    CLUSTER_RETURN_TOPICS = ("/aggregated_record", "/mdt_metric", "/region_metric")

    def _start_cluster(self, workers, supervision, isolation):
        from repro.events.cluster import ClusterEngine
        from repro.events.supervision import SupervisionPolicy

        cluster = ClusterEngine(
            self.workload.policy,
            workers=workers,
            audit=self.audit,
            # Worker processes rebuild their supervisor from the policy
            # (a Supervisor instance holds locks and is not portable).
            supervision=supervision if isinstance(supervision, SupervisionPolicy) else None,
            isolation=isolation,
        ).start()
        cluster.place(DataAggregator, "data_aggregator")
        # Events the producer publishes locally are forwarded into the
        # cluster under the aggregator's own delivery clearance — the
        # forward leg sees exactly the events an in-process aggregator
        # would. The publish links are warmed now because the forwarder
        # runs inside the producer's jailed callback, where the lazy
        # first socket connect would be denied.
        cluster.router.warm_publisher("data_producer")
        cluster.router.warm_publisher("scheduler")
        aggregator_clearance = self.workload.policy.unit(
            "data_aggregator"
        ).effective_clearance()

        def forward(event):
            cluster.router.publish(event, publisher="data_producer")

        for topic in self.CLUSTER_FORWARD_TOPICS:
            self.broker.subscribe(
                topic,
                forward,
                principal="data_aggregator",
                clearance=aggregator_clearance,
            )

        # The aggregator's outputs come back over the STOMP fabric —
        # labels intact via the codec sidecar, clearance re-checked by
        # the shard against the storage unit's own grants — and re-enter
        # the local broker for the storage unit exactly as if the
        # aggregator had published them in-process.
        def tap(event):
            self.broker.publish(event, publisher="data_aggregator")

        for topic in self.CLUSTER_RETURN_TOPICS:
            cluster.subscribe(topic, tap, principal="data_storage")
        return cluster

    # -- pipeline drivers ---------------------------------------------------------

    def import_data(self) -> None:
        """Trigger the producer (Intranet-internal control event)."""
        self.engine.publish("/control/import", publisher="scheduler")
        self._settle()

    def aggregate(self) -> None:
        """Trigger per-MDT and per-region metric computation."""
        for mdt_id in self.directory.mdt_ids():
            self._publish_control("/control/aggregate", {"mdt_id": mdt_id})
        # The regional pass reads the per-MDT metrics it just requested,
        # so in cluster mode the two control waves need a barrier — the
        # synchronous engine sequences them by construction.
        if self.cluster is not None:
            self._settle()
        for region in self.directory.regions():
            mdt_ids = ",".join(info.mdt_id for info in self.directory.in_region(region))
            self._publish_control(
                "/control/aggregate_region", {"region": region, "mdt_ids": mdt_ids}
            )
        self._settle()

    def _publish_control(self, topic: str, attributes: dict) -> None:
        """Control events go wherever the aggregator lives."""
        if self.cluster is not None:
            self.cluster.publish(topic, attributes, publisher="scheduler")
        else:
            self.engine.publish(topic, attributes, publisher="scheduler")

    def _settle(self, timeout: float = 60.0) -> None:
        """Pipeline-stage barrier: wait for the cluster to drain.

        The in-process engine finishes each cascade inside ``publish``,
        so this is a no-op without a cluster; with one, the next stage's
        control events must wait until the aggregator has merged every
        case report. A drain timeout fails loudly — running the next
        stage over a partially-processed backlog would silently corrupt
        the metrics.
        """
        if self.cluster is not None and not self.cluster.drain(timeout):
            raise SafeWebError(
                f"pipeline stage barrier: cluster did not drain within {timeout}s"
            )

    def replicate(self) -> None:
        """Push the application database across the firewall into the DMZ."""
        self.replicator.replicate()

    def close(self) -> None:
        """Clean shutdown of a durable deployment: fsync pending WAL
        records and release file handles. In-memory deployments no-op.
        Skipping this is safe — it is exactly a process crash, and
        recovery replays the durable prefix — but un-fsynced tail
        writes are then only as durable as the page cache."""
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None
        for database in self._durable_dbs:
            flush_durable(database)
            close_durable(database)
        self._durable_dbs = []
        if self.data_dir is not None:
            self.webdb.close()

    # -- health ------------------------------------------------------------------

    def probe(self) -> dict:
        """Operational health: engine, broker, and (when on) the cluster
        fabric — every STOMP link's :meth:`StompBrokerBridge.probe`
        rolled up. Served by the portal's ``GET /metrics`` page."""
        report = {
            "healthy": True,
            "engine": {
                "units": self.engine.unit_names,
                "stats": self.engine.stats.snapshot(),
            },
            "broker": {
                "subscriptions": len(self.broker),
                "published": self.broker.stats.published,
                "delivered": self.broker.stats.delivered,
            },
            "cluster": None,
        }
        if self.cluster is not None:
            cluster_report = self.cluster.probe()
            report["cluster"] = cluster_report
            report["healthy"] = bool(cluster_report["healthy"])
        return report

    def ensure_connected(self) -> bool:
        """Reconnect any down cluster link; True when healthy after."""
        if self.cluster is None:
            return True
        return self.cluster.router.ensure_connected()

    def run_pipeline(self) -> None:
        """Import → aggregate → replicate: the full backend pass."""
        self.import_data()
        self.aggregate()
        self.replicate()

    # -- client access (N3 zone) -----------------------------------------------------

    def client_for(self, username: str) -> TestClient:
        """An in-process client for *username*, connecting N3 → DMZ."""
        self.firewall.check(Zone.N3, Zone.DMZ)
        return _AuthenticatedClient(self.portal, username, self.password_of(username))

    def anonymous_client(self) -> TestClient:
        self.firewall.check(Zone.N3, Zone.DMZ)
        return TestClient(self.portal)

    def password_of(self, username: str) -> str:
        return self.workload.user_passwords[username]


class _AuthenticatedClient(TestClient):
    """TestClient that injects one user's Basic credentials."""

    def __init__(self, app, username: str, password: str):
        super().__init__(app)
        self._auth = (username, password)

    def request(self, method, path, headers=None, body="", auth=None):
        return super().request(
            method, path, headers=headers, body=body, auth=auth or self._auth
        )

"""The benchmark's one door into the program.

This is the only file under ``perf/`` that imports ``repro``. It builds
the deployment profile each workload pins, exposes the handful of driver
calls the workloads make (``refresh_pass``, ``import_mdt``, ``settle``,
``serve``, ``close``), reads the counters the layers already expose, and
lists — in :data:`SURFACE` — every public symbol the benchmark depends
on, so a later API change knows exactly which surface must keep working.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.audit import AuditLog  # noqa: E402
from repro.core.labels import lattice_stats  # noqa: E402
from repro.core.policy import Policy, PolicyDocument, UnitSpec  # noqa: E402
from repro.events import cluster_codec  # noqa: E402
from repro.events.broker import Broker  # noqa: E402
from repro.events.cluster import ClusterEngine, ClusterRouter  # noqa: E402
from repro.events.engine import EventProcessingEngine  # noqa: E402
from repro.events.event import Event  # noqa: E402
from repro.events.stomp.frames import Frame, FrameParser, encode_frame  # noqa: E402
from repro.events.store import LabeledStore  # noqa: E402
from repro.events.unit import Unit  # noqa: E402
from repro.mdt.aggregator import DataAggregator  # noqa: E402
from repro.mdt.deployment import MdtDeployment  # noqa: E402
from repro.mdt.labels import mdt_label  # noqa: E402
from repro.mdt.producer import DataProducer  # noqa: E402
from repro.mdt.storage_unit import DataStorage  # noqa: E402
from repro.mdt.workload import WorkloadConfig, generate_workload  # noqa: E402
from repro.storage.docstore import Database, make_database  # noqa: E402
from repro.storage.faults import TrackedFile  # noqa: E402
from repro.storage.recovery import close_durable, flush_durable, open_durable_database  # noqa: E402
from repro.storage.replication import Replicator  # noqa: E402
from repro.storage.wal import DEFAULT_FSYNC_BATCH, WalWriter  # noqa: E402
from repro.storage.webdb import WebDatabase  # noqa: E402
from repro.taint import json_codec, labeled  # noqa: E402
from repro.web.framework import SafeWebApp  # noqa: E402
from repro.web.http import HttpServer  # noqa: E402
from repro.web.middleware import SafeWebMiddleware  # noqa: E402
from repro.web.pagecache import PageCache  # noqa: E402
from repro.web.sessions import SessionMiddleware  # noqa: E402
from repro.web.templates import TemplateRegistry  # noqa: E402

#: Every public symbol the benchmark calls, wraps or reads. The smoke
#: test resolves each one, so a rename fails there and not in a bench run.
SURFACE = (
    # deployment profile and pipeline drivers
    "repro.mdt.workload.WorkloadConfig",
    "repro.mdt.workload.generate_workload",
    "repro.mdt.deployment.MdtDeployment",
    "repro.mdt.deployment.MdtDeployment.import_data",
    "repro.mdt.deployment.MdtDeployment.aggregate",
    "repro.mdt.deployment.MdtDeployment.close",
    "repro.storage.maindb.MainDatabase.case_records",
    # events
    "repro.events.broker.Broker.publish",
    "repro.events.broker.Broker.subscribe",
    "repro.events.broker.BrokerStats.snapshot",
    "repro.events.engine.EventProcessingEngine.publish",
    "repro.events.engine.EventProcessingEngine.register",
    "repro.events.engine.EventProcessingEngine.store_of",
    "repro.events.engine.EventProcessingEngine.drain",
    "repro.events.lanes.EngineStats.snapshot",
    "repro.events.event.Event",
    "repro.events.unit.Unit",
    "repro.events.store.LabeledStore.get",
    "repro.events.store.LabeledStore.set",
    "repro.events.store.LabeledStore.clear",
    "repro.events.cluster.ClusterEngine.drain",
    "repro.events.cluster.ClusterEngine.stats",
    "repro.events.cluster.ClusterEngine.probe",
    "repro.events.cluster.ClusterRouter.publish",
    "repro.events.cluster_codec.encode_event",
    "repro.events.cluster_codec.decode_event",
    "repro.events.stomp.frames.Frame",
    "repro.events.stomp.frames.FrameParser.feed",
    "repro.events.stomp.frames.encode_frame",
    "repro.mdt.producer.DataProducer.on_import",
    "repro.mdt.producer.DataProducer.import_cases",
    "repro.mdt.aggregator.DataAggregator.on_report",
    "repro.mdt.aggregator.DataAggregator.on_aggregate_mdt",
    "repro.mdt.aggregator.DataAggregator.on_aggregate_region",
    "repro.mdt.storage_unit.DataStorage.on_record",
    "repro.mdt.storage_unit.DataStorage.on_mdt_metric",
    "repro.mdt.storage_unit.DataStorage.on_region_metric",
    "repro.mdt.labels.mdt_label",
    "repro.core.policy.Policy",
    "repro.core.policy.PolicyDocument",
    "repro.core.policy.UnitSpec",
    # labels, taint, audit
    "repro.core.labels.lattice_stats",
    "repro.core.audit.AuditLog.note",
    "repro.core.audit.AuditLog.record",
    "repro.core.audit.AuditLog.count",
    "repro.core.audit.AuditLog.total_decisions",
    "repro.taint.json_codec.dumps",
    "repro.taint.json_codec.encode_document",
    "repro.taint.json_codec.decode_document",
    "repro.taint.labeled.with_labels",
    # storage
    "repro.storage.docstore.make_database",
    "repro.storage.docstore.Database.view",
    "repro.storage.docstore.Database.get_or_none",
    "repro.storage.docstore.Database.upsert",
    "repro.storage.docstore.Database.all_doc_ids",
    "repro.storage.replication.Replicator.replicate",
    "repro.storage.replication.ReplicationResult",
    "repro.storage.recovery.open_durable_database",
    "repro.storage.recovery.flush_durable",
    "repro.storage.recovery.close_durable",
    "repro.storage.wal.DEFAULT_FSYNC_BATCH",
    "repro.storage.wal.WalWriter.append",
    "repro.storage.faults.TrackedFile.fsync",
    "repro.storage.webdb.WebDatabase.user_id",
    "repro.storage.webdb.WebDatabase.user_row",
    "repro.storage.webdb.WebDatabase.check_password",
    "repro.storage.webdb.WebDatabase.principal_for",
    "repro.storage.webdb.WebDatabase.is_admin",
    "repro.storage.webdb.WebDatabase.count_privileges",
    # web
    "repro.web.http.HttpServer",
    "repro.web.framework.SafeWebApp.__call__",
    "repro.web.framework.SafeWebApp.match",
    "repro.web.framework.Route",
    "repro.web.middleware.SafeWebMiddleware.authenticate_request",
    "repro.web.middleware.SafeWebMiddleware.check_response",
    "repro.web.sessions.SessionMiddleware.resolve_session",
    "repro.web.sessions.SessionMiddleware.check_csrf",
    "repro.web.pagecache.PageCache.lookup",
    "repro.web.pagecache.PageCache.store",
    "repro.web.pagecache.PageCache.stats",
    "repro.web.auth.CachingAuthenticator",
    "repro.web.templates.TemplateRegistry.render",
)

#: Attributes of a built deployment the adapter reads (instance
#: attributes cannot be resolved by import, so they are listed apart).
DEPLOYMENT_ATTRIBUTES = (
    "workload", "directory", "main_db", "audit", "broker", "engine", "producer",
    "storage", "cluster", "app_db", "dmz_db", "replicator", "webdb", "portal",
)

#: The registry every MDT workload shares, so rows compare across workloads.
REGISTRY = dict(num_regions=2, mdts_per_region=4, patients_per_mdt=40)

#: Exact ``MdtDeployment`` keyword arguments each workload pins
#: (``backend_durable`` adds ``data_dir=<temp dir under perf/out>``).
PROFILES: Dict[str, dict] = {
    "web_generate": dict(cached_auth=True, page_cache=False),
    "web_cached_rw": dict(cached_auth=True, page_cache=True),
    "backend_sync": dict(),
    "backend_durable": dict(shards=4),
    "backend_cluster": dict(cluster_workers=1),
}

#: The paper's "without SafeWeb" switches, for ``enforcement.overhead_ratio``.
UNPROTECTED = dict(
    check_labels=False,
    check_taint=False,
    isolation=False,
    label_checks_in_broker=False,
    label_events=False,
)

FSYNC_POLICY = f"group commit, fsync every {DEFAULT_FSYNC_BATCH} records (DEFAULT_FSYNC_BATCH)"


def check_surface() -> List[str]:
    """Names in :data:`SURFACE` that no longer resolve (empty when all do)."""
    missing = []
    for dotted in SURFACE:
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            try:
                for attribute in parts[split:]:
                    target = getattr(target, attribute)
            except AttributeError:
                missing.append(dotted)
            break
        else:
            missing.append(dotted)
    return missing


# -- the registry and its reference -------------------------------------------


def load_registry(seed: int):
    """Generate the synthetic cancer registry for *seed*."""
    return generate_workload(WorkloadConfig(seed=seed, **REGISTRY))


def registry_reference(registry) -> dict:
    """What a correct system must end up showing, computed from ``main_db``.

    Plain data only, derived from the source registry and never from the
    system under test: per MDT its directory entry, the case events a
    full import publishes, the patients (id -> name) and the document ids
    their combined records are stored under.
    """
    mdts = {}
    for mdt_id in registry.directory.mdt_ids():
        info = registry.directory.find(mdt_id)
        cases = list(registry.main_db.case_records(mdt_id=mdt_id))
        patients = {case.patient.patient_id: case.patient.name for case in cases}
        mdts[mdt_id] = {
            "hospital": info.hospital,
            "clinic": info.clinic,
            "region": info.region,
            "events": len(cases),
            "patients": patients,
            "record_ids": sorted(
                f"record-record-{info.hospital}-{patient_id}" for patient_id in patients
            ),
        }
    return {
        "mdts": mdts,
        "passwords": dict(registry.user_passwords),
    }


# -- the MDT deployment -------------------------------------------------------


class MdtBackend:
    """One built ``MdtDeployment`` and the driver calls the workloads make."""

    def __init__(self, registry, profile: dict, data_dir: Optional[str] = None):
        kwargs = dict(profile)
        if data_dir is not None:
            kwargs["data_dir"] = data_dir
        self.deployment = MdtDeployment(workload=registry, **kwargs)
        self.server: Optional[HttpServer] = None
        self._replication = {"passes": 0, "docs_written": 0, "batches": 0}

    # -- driver calls ------------------------------------------------------

    def settle(self, timeout: float = 60.0) -> None:
        """Stage barrier: every published event and its cascade finished."""
        deployment = self.deployment
        if deployment.engine.parallel and not deployment.engine.drain(timeout):
            raise RuntimeError("engine lanes did not drain")
        if deployment.cluster is not None and not deployment.cluster.drain(timeout):
            raise RuntimeError("cluster did not drain")

    def import_mdt(self, mdt_id: str) -> int:
        """Trigger ``/control/import`` for one MDT; returns events published."""
        producer = self.deployment.producer
        before = producer.events_published
        self.deployment.engine.publish(
            "/control/import", {"mdt_id": mdt_id}, publisher="scheduler"
        )
        self.settle()
        return producer.events_published - before

    def clear_aggregator(self) -> None:
        """Forget combined records: a re-import is not idempotent."""
        self.deployment.engine.store_of("data_aggregator").clear()

    def aggregate(self) -> None:
        self.deployment.aggregate()

    def replicate(self) -> None:
        result = self.deployment.replicator.replicate()
        totals = self._replication
        totals["passes"] += 1
        totals["docs_written"] += result.docs_written
        totals["batches"] += result.batches

    def refresh_pass(self) -> None:
        """Clear, then import -> aggregate -> replicate the whole registry."""
        self.clear_aggregator()
        self.deployment.import_data()
        self.aggregate()
        self.replicate()

    def serve(self) -> Tuple[str, int]:
        self.server = HttpServer(self.deployment.portal, workers=4).start()
        return self.server.address

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.deployment.close()

    # -- reads for the oracles ---------------------------------------------

    def dmz_doc_ids(self) -> List[str]:
        return [
            doc_id
            for doc_id in self.deployment.dmz_db.all_doc_ids()
            if not doc_id.startswith("_")
        ]

    def dmz_document(self, doc_id: str) -> Optional[dict]:
        document = self.deployment.dmz_db.get_or_none(doc_id)
        if document is None:
            return None
        return json.loads(str(json_codec.dumps(document)))

    def app_doc_ids(self) -> List[str]:
        return list(self.deployment.app_db.all_doc_ids())

    def descendant_pids(self) -> List[int]:
        """Pids of the cluster's child processes (empty when in-process)."""
        return _descendants(os.getpid())

    # -- counters the layers already expose ---------------------------------

    def counters(self) -> Dict[str, float]:
        deployment = self.deployment
        out: Dict[str, float] = {}
        for key, value in deployment.broker.stats.snapshot().items():
            out[f"broker.{key}"] = value
        for key, value in deployment.engine.stats.snapshot().items():
            out[f"engine.{key}"] = value
        out["producer.events_published"] = deployment.producer.events_published
        out["storage_unit.documents_written"] = deployment.storage.documents_written
        for key, value in self._replication.items():
            out[f"replication.{key}"] = value
        out.update(_shared_counters(deployment.audit))
        cache = getattr(deployment.portal, "page_cache", None)
        if cache is not None:
            for key, value in cache.stats().items():
                out[f"pagecache.{key}"] = value
        authenticator = getattr(deployment.portal, "authenticator", None)
        for key in ("credential_hits", "credential_misses", "principal_hits", "principal_misses"):
            out[f"auth.{key}"] = getattr(authenticator, key, 0)
        if self.server is not None:
            out["http.requests_served"] = self.server.requests_served
        if deployment.cluster is not None:
            router = deployment.cluster.probe()["router"]
            for key in ("published", "delivered", "errors", "dead_lettered"):
                out[f"cluster.router_{key}"] = router[key]
            dispatched = 0
            for report in deployment.cluster.stats().values():
                dispatched += report["dispatched"]
            out["cluster.worker_dispatched"] = dispatched
        return out


def _shared_counters(audit: AuditLog) -> Dict[str, float]:
    out = {
        "audit.decisions": audit.total_decisions(),
        "audit.denied": audit.count(decision="denied"),
        "audit.frontend_denied": audit.count(component="frontend", decision="denied"),
        "audit.sessions_resolved": audit.count(component="frontend", operation="session"),
    }
    lattice = lattice_stats()
    for memo in ("flows_memo", "combine_memo"):
        out[f"labels.{memo}_hits"] = lattice[memo]["hits"]
        out[f"labels.{memo}_misses"] = lattice[memo]["misses"]
    return out


# -- the events layer alone ---------------------------------------------------

FANOUT_UNITS = 48
FANOUT_TOPICS = 8


def fanout_clearance(unit_index: int) -> List[int]:
    """MDT numbers unit *unit_index* is cleared for (README, broker_fanout)."""
    return [
        (unit_index + offset) % FANOUT_TOPICS + 1 for offset in range(1 + unit_index % 4)
    ]


class FanoutConsumer(Unit):
    """A jailed consumer with a trivial handler, like the paper's E4 unit."""

    def __init__(self, index: int):
        super().__init__()
        self.unit_name = f"fanout_{index:02d}"
        self._selector = "stage > 1" if index % 2 else None

    def setup(self) -> None:
        self.subscribe("/bench/mdt/*/report", self.on_event, selector=self._selector)

    def on_event(self, event) -> None:
        _value = event.get("n", "0")


class FanoutBackend:
    """Bare ``Broker`` + ``EventProcessingEngine`` with 48 consumer units."""

    def __init__(self, protected: bool = True):
        document = PolicyDocument(authority="ecric.org.uk")
        for index in range(FANOUT_UNITS):
            name = f"fanout_{index:02d}"
            document.units[name] = UnitSpec(
                name=name,
                grants={
                    "clearance": [mdt_label(str(m)).uri for m in fanout_clearance(index)]
                },
            )
        self.audit = AuditLog()
        self.broker = Broker(audit=self.audit, label_checks=protected)
        self.engine = EventProcessingEngine(
            broker=self.broker, policy=Policy(document), audit=self.audit, isolation=protected
        )
        for index in range(FANOUT_UNITS):
            self.engine.register(FanoutConsumer(index))
        self.publish = self.broker.publish
        self._labels = [
            [mdt_label(str(topic + 1))] if protected else []
            for topic in range(FANOUT_TOPICS)
        ]

    def make_event(self, sequence: int):
        topic = sequence % FANOUT_TOPICS
        return Event(
            f"/bench/mdt/{topic + 1}/report",
            {"n": sequence, "stage": sequence % 4},
            labels=self._labels[topic],
        )

    def close(self) -> None:
        self.engine.stop()

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, value in self.broker.stats.snapshot().items():
            out[f"broker.{key}"] = value
        for key, value in self.engine.stats.snapshot().items():
            out[f"engine.{key}"] = value
        out.update(_shared_counters(self.audit))
        return out


# -- tracing: the fixed list of wrapped entry points --------------------------


def _rows(result, _args) -> int:
    return len(result) if result is not None else 0


def _replicated(result, _args) -> int:
    return result.docs_written if result is not None else 0


def install_tracing(tracer) -> None:
    """Wrap the listed public entry points (before a deployment is built:
    units capture their handlers as bound methods when they subscribe)."""
    payloads = tracer.stash.setdefault("wal_payloads", [])

    def _appended(_result, args) -> int:
        payloads.append(args[1])  # sized after the window, off the write path
        return len(args[1]) + 8  # payload + the length/CRC frame

    methods = [
        ("web.app", SafeWebApp, "__call__", None),
        ("web.routing.match", SafeWebApp, "match", None),
        ("web.auth", SafeWebMiddleware, "authenticate_request", None),
        ("web.middleware.check_response", SafeWebMiddleware, "check_response", None),
        ("web.sessions", SessionMiddleware, "resolve_session", None),
        ("web.sessions", SessionMiddleware, "check_csrf", None),
        ("web.pagecache.lookup", PageCache, "lookup", None),
        ("web.pagecache.store", PageCache, "store", None),
        ("web.templates.render", TemplateRegistry, "render", None),
        ("storage.docstore.view", Database, "view", _rows),
        ("storage.docstore.get", Database, "get_or_none", None),
        ("storage.docstore.upsert", Database, "upsert", None),
        ("storage.replication", Replicator, "replicate", _replicated),
        ("storage.wal.append", WalWriter, "append", _appended),
        ("storage.wal.fsync", TrackedFile, "fsync", None),
        ("events.dispatch", Broker, "publish", None),
        ("events.store.get", LabeledStore, "get", None),
        ("events.store.set", LabeledStore, "set", None),
        ("events.cluster.publish", ClusterRouter, "publish", None),
        ("events.cluster.drain", ClusterEngine, "drain", None),
        ("mdt.producer", DataProducer, "on_import", None),
        ("mdt.producer", DataProducer, "import_cases", None),
        ("mdt.aggregator.on_report", DataAggregator, "on_report", None),
        ("mdt.aggregator.aggregate", DataAggregator, "on_aggregate_mdt", None),
        ("mdt.aggregator.aggregate", DataAggregator, "on_aggregate_region", None),
        ("mdt.storage_unit.on_record", DataStorage, "on_record", None),
        ("mdt.storage_unit.on_metric", DataStorage, "on_mdt_metric", None),
        ("mdt.storage_unit.on_metric", DataStorage, "on_region_metric", None),
        ("events.consumer", FanoutConsumer, "on_event", None),
        ("core.audit", AuditLog, "note", None),
        ("core.audit", AuditLog, "record", None),
        ("core.audit", AuditLog, "flush", None),
    ]
    for query in ("user_id", "user_row", "check_password", "principal_for", "is_admin", "count_privileges"):
        methods.append(("storage.webdb.query", WebDatabase, query, None))
    for name, owner, attribute, measure in methods:
        tracer.patch_attribute(name, owner, attribute, measure)
    tracer.patch_function("taint.json_codec.dumps", json_codec.dumps, "repro.")
    tracer.patch_function("taint.json_codec.encode_document", json_codec.encode_document, "repro.")
    tracer.patch_function("taint.json_codec.decode_document", json_codec.decode_document, "repro.")
    tracer.patch_function("taint.labeled.with_labels", labeled.with_labels, "repro.")


#: One path per portal route whose handler the traced run wraps.
_PORTAL_ROUTES = (
    ("GET", "/"),
    ("GET", "/records/1"),
    ("GET", "/metrics/1"),
    ("GET", "/region/region-1"),
    ("GET", "/compare/1"),
    ("POST", "/feedback"),
    ("GET", "/health"),
)


def trace_portal_handlers(tracer, backend: MdtBackend) -> None:
    """Wrap the portal's route handlers of one built deployment."""
    for method, path in _PORTAL_ROUTES:
        route, _captures = backend.deployment.portal.match(method, path)
        tracer.patch_attribute("mdt.portal.handler", route, "handler")


def wal_bytes_per_user_byte(tracer) -> float:
    """WAL bytes appended per byte of the document bodies they carry."""
    payloads = tracer.stash.get("wal_payloads", [])
    user = sum(
        len(json.dumps(json.loads(payload)[4], separators=(",", ":"))) for payload in payloads
    )
    written = sum(len(payload) + 8 for payload in payloads)
    return written / user if user else 0.0


# -- isolated probes on the run's own data ------------------------------------


def _best_per_call(function: Callable, items: list, repeats: int = 5) -> float:
    """Fastest mean seconds per call of *function* over *items*."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for item in items:
            function(item)
        best = min(best, (time.perf_counter() - started) / len(items))
    return best


def codec_probe(registry, limit: int = 200) -> Dict[str, float]:
    """Microseconds per call of the fabric's two codecs on real case events."""
    events = []
    for case in registry.main_db.case_records():
        attributes = case.to_attributes()
        events.append(
            Event("/patient_report", attributes, labels=[mdt_label(case.patient.mdt_id)])
        )
        if len(events) >= limit:
            break
    bodies = [cluster_codec.encode_event(event) for event in events]
    frames = [
        Frame("SEND", {"destination": event.topic, "content-type": "application/json"}, body)
        for event, body in zip(events, bodies)
    ]
    wire = [encode_frame(frame) for frame in frames]

    def parse(data: bytes) -> None:
        FrameParser().feed(data)

    return {
        "events.cluster_codec.encode_us": _best_per_call(cluster_codec.encode_event, events) * 1e6,
        "events.cluster_codec.decode_us": _best_per_call(cluster_codec.decode_event, bodies) * 1e6,
        "events.stomp.frame_encode_us": _best_per_call(encode_frame, frames) * 1e6,
        "events.stomp.frame_parse_us": _best_per_call(parse, wire) * 1e6,
    }


def wal_put_probe(backend: MdtBackend, directory: str, limit: int = 200) -> float:
    """Durable minus in-memory microseconds per ``upsert`` of real documents."""
    source = backend.deployment.app_db
    documents = []
    for doc_id in source.all_doc_ids()[:limit]:
        document = dict(source.get_or_none(doc_id))
        document.pop("_rev", None)
        documents.append(document)
    memory = make_database("probe_memory")
    durable = open_durable_database(directory, "probe_durable")
    try:
        memory_s = _best_per_call(lambda doc: memory.upsert(dict(doc)), documents, repeats=3)
        durable_s = _best_per_call(lambda doc: durable.upsert(dict(doc)), documents, repeats=3)
    finally:
        flush_durable(durable)
        close_durable(durable)
    return (durable_s - memory_s) * 1e6


# -- processes ----------------------------------------------------------------


def _descendants(root: int) -> List[int]:
    """Live descendants of *root*, from ``/proc`` (Linux)."""
    parents: Dict[int, int] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
            parents[int(entry)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue
    found: List[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in found:
                found.append(pid)
                frontier.append(pid)
    return found


def stop_process_helpers() -> List[int]:
    """Stop multiprocessing's fork server and resource tracker, which the
    cluster engine starts implicitly and which otherwise outlive the last
    deployment until interpreter exit. Returns descendants still alive."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ValueError, AttributeError):
                pass
    deadline = time.monotonic() + 5.0
    alive = _descendants(os.getpid())
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = _descendants(os.getpid())
    return alive

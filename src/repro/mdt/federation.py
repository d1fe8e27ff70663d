"""Inter-regional federation (the paper's §7 future work).

"Scaling up will involve creating separate, independent regional
instances of SafeWeb, which can interact with each other in a secure
fashion." This module implements that interaction for the data class
policy P1 already permits to travel: *regional aggregates* (visible to
all MDTs).

Topology: every regional deployment runs a :class:`RegionalGateway`
connected to a shared *national exchange* — a label-aware STOMP broker
with its own policy. The gateway

* **exports** the local region's aggregate metrics, labelled with the
  regional aggregate label, onto the exchange;
* **imports** other regions' aggregates from the exchange into the local
  application database (via its replication ingress), so local portals
  serve them like home-grown metrics.

Patient-level and MDT-level data never reaches the gateway's exchange
subscriptions: the exchange's policy clears gateways for
``label:conf:ecric.org.uk/region_agg`` only, so a buggy gateway that
tried to export finer-grained data would publish events the other
gateways can never receive — and its own subscription could never leak
them back out.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import LabelSet
from repro.core.policy import Policy, PolicyDocument, UnitSpec
from repro.events.broker import Broker
from repro.events.event import Event
from repro.events.selector import selector_literal
from repro.events.stomp.bridge import StompBrokerBridge
from repro.events.stomp.server import StompServer
from repro.faults import NULL_FAULTS, FaultInjector, SimulatedCrash
from repro.mdt.deployment import MdtDeployment
from repro.mdt.labels import region_aggregate_label, region_aggregate_root

EXCHANGE_TOPIC = "/national/region_metric"

#: How long :func:`federate` waits for the first exchange round to land.
SETTLE_SECONDS = 2.0


def exchange_policy(region_names: List[str]) -> Policy:
    """The national exchange's policy: one gateway unit per region,
    cleared for regional aggregates only."""
    document = PolicyDocument(authority="ecric.org.uk")
    for region in region_names:
        document.units[f"gateway_{region}"] = UnitSpec(
            name=f"gateway_{region}",
            grants={"clearance": [region_aggregate_root().uri]},
        )
    return Policy(document)


class NationalExchange:
    """The shared broker regional instances meet on.

    Restartable: ``stop()`` is idempotent and ``start()`` after a stop
    rebuilds the STOMP server **on the same port** (gateways keep a
    stable address to reconnect to) over the same broker. The broker
    delivers on the publishing connection's thread, so the exchange's
    RECEIPT for a SEND follows its delivery. Export rounds after a restart converge because imports land as
    MVCC upserts — re-exported metrics simply become the next revision.
    """

    def __init__(self, regions: List[str], host: str = "127.0.0.1", port: int = 0):
        self.regions = list(regions)
        self._host = host
        self.broker = Broker()
        self.server: Optional[StompServer] = StompServer(
            self.broker, host=host, port=port, policy=exchange_policy(self.regions)
        )
        #: The bound address, remembered across restarts (the initial
        #: ``port=0`` bind picks a free port exactly once).
        self._address = self.server.address
        self._running = False

    def start(self) -> "NationalExchange":
        if self._running:
            return self
        if self.server is None:
            # A stopped server was server_close()d; rebuild on the
            # remembered port so reconnecting gateways find us again.
            self.server = StompServer(
                self.broker,
                host=self._host,
                port=self._address[1],
                policy=exchange_policy(self.regions),
            )
        self.server.start()
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self.server is not None:
            self.server.stop()
            self.server = None

    @property
    def running(self) -> bool:
        return self._running

    @property
    def address(self):
        return self._address


class RegionalGateway:
    """One region's connection to the national exchange.

    Restartable and failure-aware (docs/ROBUSTNESS.md): ``stop()`` is
    idempotent, ``start()`` after a stop re-opens the bridge session and
    re-subscribes; :meth:`probe`/:meth:`ensure_connected` expose link
    health; export rounds after an exchange restart converge because
    imports are MVCC upserts keyed by region.
    """

    def __init__(
        self,
        deployment: MdtDeployment,
        region: str,
        exchange: NationalExchange,
        local_region_name: Optional[str] = None,
        audit: Optional[AuditLog] = None,
        faults: FaultInjector = NULL_FAULTS,
    ):
        self.deployment = deployment
        #: The region's *federated* identity on the exchange.
        self.region = region
        #: What the local workload calls its region (independent regional
        #: instances each number their own regions from 1).
        self.local_region_name = local_region_name or region
        self._audit = audit if audit is not None else default_audit_log()
        self._faults = faults
        host, port = exchange.address
        self._bridge = StompBrokerBridge(
            host, port, login=f"gateway_{region}", audit=self._audit, faults=faults
        )
        self._running = False
        self.imported: List[str] = []
        #: Completed export rounds (observability; resumption checkpoint
        #: is the app-db revision chain, not this counter).
        self.export_rounds = 0
        self.import_failures = 0

    def start(self) -> "RegionalGateway":
        if self._running:
            return self
        self._bridge.connect()
        self._bridge.subscribe(
            EXCHANGE_TOPIC,
            self._on_foreign_metric,
            principal=f"gateway_{self.region}",
            selector=f"region <> {selector_literal(self.region)}",
        )
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._bridge.close()

    @property
    def running(self) -> bool:
        return self._running

    def probe(self) -> dict:
        """Gateway health: link state + import/export progress."""
        report = self._bridge.probe()
        report.update(
            {
                "running": self._running,
                "export_rounds": self.export_rounds,
                "imported": len(self.imported),
                "import_failures": self.import_failures,
            }
        )
        return report

    def ensure_connected(self) -> bool:
        """Reconnect the exchange link if it dropped; True when healthy."""
        if not self._running:
            return False
        return self._bridge.ensure_connected()

    # -- export ----------------------------------------------------------------

    def export_region_metric(self) -> Optional[Event]:
        """Publish the local regional aggregate onto the exchange.

        Safe to call again after an exchange restart: the bridge's send
        ladder reconnects and resubscribes, and re-exported metrics land
        on the importing side as the next upsert revision.
        """
        self._faults.hit("federation.export")
        document = self.deployment.app_db.get_or_none(
            f"metric-region-{self.local_region_name}"
        )
        if document is None:
            return None
        event = Event(
            EXCHANGE_TOPIC,
            {
                "region": self.region,
                "mdt_count": str(document.get("mdt_count", "0")),
                "completeness": str(document.get("completeness", "")),
                "survival": str(document.get("survival", "")),
            },
            labels=LabelSet([region_aggregate_label(self.region)]),
        )
        if self._running:
            self._bridge.ensure_connected()
        self._bridge.publish(event)
        self._bridge.drain()
        self.export_rounds += 1
        return event

    # -- import -----------------------------------------------------------------

    def _on_foreign_metric(self, event: Event) -> None:
        try:
            self._faults.hit("federation.import")
            self._import_foreign_metric(event)
        except SimulatedCrash:
            raise
        except Exception as error:  # noqa: BLE001 - the listener must survive
            # A failed import is audited, never silent; the next export
            # round from the peer region re-delivers the metric and the
            # upsert converges on the same document.
            self.import_failures += 1
            self._audit.denied(
                "federation",
                "import",
                f"gateway_{self.region}",
                labels=event.labels,
                detail=f"import of {event.get('region', '?')} failed: {error!r}",
            )

    def _import_foreign_metric(self, event: Event) -> None:
        region = event["region"]
        labels = LabelSet([region_aggregate_label(region)])
        from repro.taint.labeled import with_labels

        document = {
            "_id": f"metric-region-{region}",
            "type": "region_metric",
            "metric_region": region,
            "mdt_count": event.get("mdt_count", "0"),
            "completeness": with_labels(event.get("completeness", ""), labels),
            "survival": with_labels(event.get("survival", ""), labels),
            "federated_from": region,
        }
        # Upsert adopts the current stored revision under the store lock,
        # so repeated export rounds for the same region land as proper
        # MVCC successors (1-… → 2-… → …). The seed wrote every round at
        # a fixed generation ``1-federated-<event_id>``, which kept the
        # revision history flat and collided with any consumer tracking
        # revs by generation. The DMZ replica still receives the import
        # only through replication and stays read-only to everything else.
        self.deployment.app_db.upsert(document)
        self.deployment.replicate()
        self.imported.append(region)


def federate(
    deployments: dict,
    exchange: NationalExchange,
    local_region_names: Optional[dict] = None,
) -> dict:
    """Wire gateways for every deployment and exchange current metrics.

    Returns the gateways, started and synchronised once; callers drive
    further rounds with :meth:`RegionalGateway.export_region_metric`.
    """
    local_region_names = local_region_names or {}
    gateways = {
        region: RegionalGateway(
            deployment, region, exchange, local_region_names.get(region)
        ).start()
        for region, deployment in deployments.items()
    }
    for gateway in gateways.values():
        gateway.export_region_metric()
    deadline = time.monotonic() + SETTLE_SECONDS
    expected = len(deployments) - 1
    while time.monotonic() < deadline:
        if all(len(g.imported) >= expected for g in gateways.values()):
            break
        time.sleep(0.01)
    return gateways

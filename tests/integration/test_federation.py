"""Integration: inter-regional federation (the paper's §7 future work).

Two independent regional SafeWeb instances exchange regional aggregates
over a label-aware national exchange; finer-grained data cannot cross.
"""

import json
import time

import pytest

from repro.core.labels import LabelSet
from repro.events.event import Event
from repro.mdt.deployment import MdtDeployment
from repro.mdt.federation import (
    EXCHANGE_TOPIC,
    NationalExchange,
    RegionalGateway,
    federate,
)
from repro.mdt.labels import mdt_label, region_aggregate_label
from repro.mdt.workload import WorkloadConfig, generate_workload

pytestmark = pytest.mark.usefixtures("resource_ledger")


@pytest.fixture(scope="module")
def federated():
    regions = ["region-1", "region-2"]
    deployments = {}
    for index, region in enumerate(regions):
        # Each regional instance is fully independent (own broker, DBs).
        deployment = MdtDeployment(
            generate_workload(
                WorkloadConfig(
                    num_regions=1, mdts_per_region=2, patients_per_mdt=4, seed=60 + index
                )
            )
        )
        # Regional instances name their own region; the generator labels
        # every single-region workload "region-1", so rename via directory.
        deployments[region] = deployment
        deployment.run_pipeline()
    exchange = NationalExchange(regions).start()
    gateways = federate(
        {region: deployments[region] for region in regions},
        exchange,
        local_region_names={region: "region-1" for region in regions},
    )
    yield deployments, gateways, exchange
    for gateway in gateways.values():
        gateway.stop()
    exchange.stop()


class TestFederation:
    def test_foreign_metrics_imported(self, federated):
        deployments, gateways, _exchange = federated
        # region-1's instance now holds region-2's aggregate. Note each
        # single-region workload calls its own region "region-1", so the
        # foreign doc is identified by the *gateway* region name.
        assert gateways["region-1"].imported == ["region-2"]
        assert gateways["region-2"].imported == ["region-1"]
        foreign = deployments["region-1"].app_db.get_or_none("metric-region-region-2")
        assert foreign is not None
        assert foreign["federated_from"] == "region-2"

    def test_imported_metrics_carry_regional_labels(self, federated):
        deployments, _gateways, _exchange = federated
        from repro.taint import labels_of

        foreign = deployments["region-1"].app_db.get("metric-region-region-2")
        assert labels_of(foreign["completeness"]) == LabelSet(
            [region_aggregate_label("region-2")]
        )

    def test_portal_serves_foreign_region_metric(self, federated):
        deployments, _gateways, _exchange = federated
        client = deployments["region-1"].client_for("mdt1")
        result = client.get("/region/region-2")
        assert result.ok
        metric = json.loads(result.text)
        assert metric["federated_from"] == "region-2"

    def test_own_region_metric_still_served(self, federated):
        deployments, _gateways, _exchange = federated
        client = deployments["region-1"].client_for("mdt1")
        assert client.get("/region/region-1").ok

    def test_mdt_level_data_cannot_cross_the_exchange(self, federated):
        """A gateway trying to export patient-level data publishes into
        the void: no gateway is cleared for MDT labels."""
        deployments, gateways, exchange = federated
        received = []
        exchange.broker.subscribe(
            "/national/#", received.append, principal="observer"
        )
        leaky_event = Event(
            EXCHANGE_TOPIC,
            {"region": "region-1", "completeness": "secret-patient-data"},
            labels=LabelSet([mdt_label("1")]),  # patient-level label!
        )
        gateways["region-1"]._bridge.publish(leaky_event)
        gateways["region-1"]._bridge.drain()
        exchange.broker.drain()
        time.sleep(0.05)
        # The observer (no clearance) saw nothing, and neither gateway
        # imported anything new.
        assert received == []
        assert gateways["region-2"].imported == ["region-1"]

    def test_dmz_replicas_updated(self, federated):
        deployments, _gateways, _exchange = federated
        assert "metric-region-region-2" in deployments["region-1"].dmz_db


def _wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestRepeatedExportRounds:
    """Regression: refreshed metrics must land as proper MVCC successors.

    The seed wrote every import round at a fixed revision generation
    (``1-federated-<event_id>``), so repeated ``export_region_metric``
    rounds for the same region never advanced the stored revision — any
    consumer tracking revisions by generation saw the refreshed metric
    as a conflict of the first import rather than its successor.
    """

    def test_second_round_updates_metric_and_advances_rev(self):
        regions = ["region-1", "region-2"]
        deployments = {}
        for index, region in enumerate(regions):
            deployment = MdtDeployment(
                generate_workload(
                    WorkloadConfig(
                        num_regions=1, mdts_per_region=2, patients_per_mdt=3, seed=80 + index
                    )
                )
            )
            deployments[region] = deployment
            deployment.run_pipeline()
        exchange = NationalExchange(regions).start()
        gateways = federate(
            {region: deployments[region] for region in regions},
            exchange,
            local_region_names={region: "region-1" for region in regions},
        )
        try:
            first = deployments["region-1"].app_db.get("metric-region-region-2")
            assert int(first["_rev"].split("-", 1)[0]) == 1

            # Region-2 refreshes its local aggregate and exports again.
            local = deployments["region-2"].app_db.get("metric-region-region-1")
            local["mdt_count"] = "17"
            deployments["region-2"].app_db.upsert(local)
            gateways["region-2"].export_region_metric()
            assert _wait_for(lambda: len(gateways["region-1"].imported) >= 2)

            refreshed = deployments["region-1"].app_db.get("metric-region-region-2")
            assert refreshed["mdt_count"] == "17"
            # The refreshed import is a successor revision, not another
            # generation-1 write (what the seed produced).
            assert int(refreshed["_rev"].split("-", 1)[0]) == 2
            # And it is served: DMZ replica and portal both updated.
            dmz = deployments["region-1"].dmz_db.get("metric-region-region-2")
            assert dmz["mdt_count"] == "17"
            client = deployments["region-1"].client_for("mdt1")
            served = json.loads(client.get("/region/region-2").text)
            assert served["mdt_count"] == "17"
        finally:
            for gateway in gateways.values():
                gateway.stop()
            exchange.stop()


class TestQuotedRegionNames:
    """Regression: the exchange selector was built by raw interpolation,
    so a region name containing a single quote produced an unparseable
    STOMP subscription filter and the gateway never imported anything."""

    def test_selector_literal_escapes_quotes(self):
        from repro.events.selector import parse_selector
        from repro.mdt.federation import selector_literal

        quoted = selector_literal("o'brien")
        selector = parse_selector(f"region <> {quoted}")
        assert not selector.matches({"region": "o'brien"})
        assert selector.matches({"region": "south"})

    def test_gateway_with_quoted_region_subscribes_and_imports(self):
        """A quoted-region gateway must still *subscribe* correctly: the
        seed's raw interpolation made the exchange reject its selector,
        so it never received anyone's exports. (The reverse direction —
        exporting under a quoted region name — is limited by the label
        URI charset, which is orthogonal to the selector bug.)"""
        regions = ["o'brien", "south"]
        deployments = {}
        for index, region in enumerate(regions):
            deployment = MdtDeployment(
                generate_workload(
                    WorkloadConfig(
                        num_regions=1, mdts_per_region=2, patients_per_mdt=3, seed=90 + index
                    )
                )
            )
            deployments[region] = deployment
            deployment.run_pipeline()
        exchange = NationalExchange(regions).start()
        gateways = {
            region: RegionalGateway(
                deployments[region], region, exchange, local_region_name="region-1"
            ).start()
            for region in regions
        }
        try:
            gateways["south"].export_region_metric()
            assert _wait_for(lambda: gateways["o'brien"].imported == ["south"])
            foreign = deployments["o'brien"].app_db.get("metric-region-south")
            assert foreign["federated_from"] == "south"
            # The quoted gateway's own export must not loop back to it.
            assert "o'brien" not in gateways["o'brien"].imported
        finally:
            for gateway in gateways.values():
                gateway.stop()
            exchange.stop()

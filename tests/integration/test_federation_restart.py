"""Restartability of the federation tier (docs/ROBUSTNESS.md).

Seed regressions: ``NationalExchange.stop()`` closed the STOMP server
for good (``start()`` again raised on the dead socket), and
``RegionalGateway.stop()`` was neither idempotent nor resumable. Both
are now restartable; export rounds after an exchange restart converge
because imports land as MVCC upserts.
"""

import time

import pytest

from repro.core.audit import AuditLog
from repro.faults import FaultInjector
from repro.mdt.deployment import MdtDeployment
from repro.mdt.federation import NationalExchange, RegionalGateway, federate
from repro.mdt.workload import WorkloadConfig, generate_workload

pytestmark = pytest.mark.usefixtures("resource_ledger")

REGIONS = ["region-1", "region-2"]


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture()
def federation():
    deployments = {}
    for index, region in enumerate(REGIONS):
        deployment = MdtDeployment(
            generate_workload(
                WorkloadConfig(
                    num_regions=1, mdts_per_region=2, patients_per_mdt=3, seed=70 + index
                )
            )
        )
        deployments[region] = deployment
        deployment.run_pipeline()
    exchange = NationalExchange(REGIONS).start()
    gateways = federate(
        {region: deployments[region] for region in REGIONS},
        exchange,
        local_region_names={region: "region-1" for region in REGIONS},
    )
    assert wait_for(lambda: gateways["region-1"].imported == ["region-2"])
    yield deployments, gateways, exchange
    for gateway in gateways.values():
        gateway.stop()
    exchange.stop()


class TestExchangeRestart:
    def test_stop_is_idempotent(self, federation):
        _deployments, _gateways, exchange = federation
        address = exchange.address
        exchange.stop()
        assert not exchange.running
        exchange.stop()  # second stop is a no-op
        assert exchange.address == address  # the bound port is remembered
        exchange.start()
        assert exchange.running
        assert exchange.address == address

    def test_export_rounds_resume_after_exchange_restart(self, federation):
        deployments, gateways, exchange = federation
        exchange.stop()
        exchange.start()

        # The gateways' old sessions died with the server; health probes
        # notice and reconnection restores the standing subscriptions.
        for gateway in gateways.values():
            assert wait_for(lambda: gateway.ensure_connected(), 10)
            assert gateway.probe()["connected"]

        # Region-2 refreshes its aggregate and re-exports; the import on
        # region-1 lands as the next MVCC revision of the same document.
        local = deployments["region-2"].app_db.get("metric-region-region-1")
        local["mdt_count"] = "23"
        deployments["region-2"].app_db.upsert(local)
        gateways["region-2"].export_region_metric()
        assert wait_for(lambda: len(gateways["region-1"].imported) >= 2, 10)

        refreshed = deployments["region-1"].app_db.get("metric-region-region-2")
        assert refreshed["mdt_count"] == "23"
        assert int(refreshed["_rev"].split("-", 1)[0]) == 2

    def test_export_reconnects_lazily_without_explicit_probe(self, federation):
        """export_region_metric alone converges after a restart: either
        the health probe notices the dead link up front, or the send
        ladder hits the broken socket and reconnects mid-send. The
        importing side must still resubscribe, which its own lazy
        ensure_connected handles."""
        deployments, gateways, exchange = federation
        exchange.stop()
        exchange.start()
        assert wait_for(lambda: gateways["region-1"].ensure_connected(), 10)
        gateways["region-2"].export_region_metric()
        assert wait_for(lambda: len(gateways["region-1"].imported) >= 2, 10)


class TestGatewayRestart:
    def test_stop_is_idempotent_and_start_resumes(self, federation):
        deployments, gateways, _exchange = federation
        gateway = gateways["region-1"]
        gateway.stop()
        assert not gateway.running
        gateway.stop()  # no-op
        assert gateway.probe()["running"] is False
        assert gateway.ensure_connected() is False  # stopped stays stopped

        gateway.start()
        assert gateway.running
        assert gateway.start() is gateway  # idempotent

        # The restarted gateway both imports and exports again.
        local = deployments["region-2"].app_db.get("metric-region-region-1")
        local["mdt_count"] = "31"
        deployments["region-2"].app_db.upsert(local)
        gateways["region-2"].export_region_metric()
        assert wait_for(lambda: len(gateway.imported) >= 2, 10)
        assert (
            deployments["region-1"].app_db.get("metric-region-region-2")["mdt_count"]
            == "31"
        )

        gateway.export_region_metric()
        assert wait_for(lambda: len(gateways["region-2"].imported) >= 2, 10)
        assert gateway.export_rounds >= 1


class TestImportFaultContainment:
    def test_injected_import_fault_is_audited_and_next_round_converges(self):
        """The ``federation.import`` fault point: a failing import is
        counted + audited as denied, and the next export round lands the
        metric (the exporter's document is the source of truth, so
        nothing is lost)."""
        deployments = {
            region: MdtDeployment(
                generate_workload(
                    WorkloadConfig(
                        num_regions=1, mdts_per_region=2, patients_per_mdt=3, seed=80 + i
                    )
                )
            )
            for i, region in enumerate(REGIONS)
        }
        for deployment in deployments.values():
            deployment.run_pipeline()
        exchange = NationalExchange(REGIONS).start()
        faults = FaultInjector()
        faults.fail_at("federation.import", on=1)
        audit = AuditLog()
        importer = RegionalGateway(
            deployments["region-1"], "region-1", exchange, "region-1",
            audit=audit, faults=faults,
        ).start()
        exporter = RegionalGateway(
            deployments["region-2"], "region-2", exchange, "region-1"
        ).start()
        try:
            exporter.export_region_metric()
            assert wait_for(lambda: importer.import_failures == 1)
            assert importer.imported == []
            assert ("federation", "import", "denied") in [
                (r.component, r.operation, r.decision) for r in audit.records()
            ]

            exporter.export_region_metric()
            assert wait_for(lambda: importer.imported == ["region-2"], 10)
            assert (
                deployments["region-1"].app_db.get("metric-region-region-2")
                is not None
            )
        finally:
            importer.stop()
            exporter.stop()
            exchange.stop()

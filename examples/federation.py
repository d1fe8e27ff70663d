#!/usr/bin/env python3
"""Inter-regional federation — the paper's §7 future work, running.

Two fully independent regional SafeWeb instances (own broker, engine,
databases, firewall, portal) meet on a label-aware *national exchange*
and swap regional aggregate metrics — the only data class policy P1
lets every MDT see. Patient-level data cannot cross: the exchange's
policy clears gateways for regional-aggregate labels only.

Run:  python examples/federation.py
"""

import json

from repro.core.labels import LabelSet
from repro.events.event import Event
from repro.mdt.deployment import MdtDeployment
from repro.mdt.federation import EXCHANGE_TOPIC, NationalExchange, federate
from repro.mdt.labels import mdt_label
from repro.mdt.workload import WorkloadConfig, generate_workload


def main() -> None:
    regions = ["region-1", "region-2"]
    print("building two independent regional SafeWeb instances…")
    deployments = {}
    for index, region in enumerate(regions):
        deployment = MdtDeployment(
            generate_workload(
                WorkloadConfig(
                    num_regions=1, mdts_per_region=2, patients_per_mdt=6, seed=500 + index
                )
            )
        )
        deployment.run_pipeline()
        deployments[region] = deployment
        print(f"  {region}: {len(deployment.app_db)} documents in its application DB")

    print("\nstarting the national exchange and federating…")
    exchange = NationalExchange(regions).start()
    gateways = federate(
        deployments, exchange, local_region_names={r: "region-1" for r in regions}
    )

    for region in regions:
        other = regions[1] if region == "region-1" else regions[0]
        print(f"  {region} imported aggregates from: {gateways[region].imported}")

    # An MDT coordinator in region-1 reads region-2's aggregate locally.
    client = deployments["region-1"].client_for("mdt1")
    result = client.get("/region/region-2")
    metric = json.loads(result.text)
    print(f"\nregion-1 coordinator GET /region/region-2 -> HTTP {result.status}")
    print(f"  completeness={metric['completeness']}, survival={metric['survival']}, "
          f"federated_from={metric['federated_from']}")

    # A gateway trying to push patient-level data publishes into the void.
    print("\nattempting to leak patient-level data across the exchange…")
    observer_events = []
    exchange.broker.subscribe("/national/#", observer_events.append, principal="observer")
    leaky = Event(
        EXCHANGE_TOPIC,
        {"region": "region-1", "completeness": "patient names here"},
        labels=LabelSet([mdt_label("1")]),
    )
    gateways["region-1"]._bridge.publish(leaky)
    gateways["region-1"]._bridge.drain()
    exchange.broker.drain()
    print(f"  deliveries of the labelled leak: {len(observer_events)} "
          f"(label filtering at the exchange)")

    assert result.ok
    assert observer_events == []
    for gateway in gateways.values():
        gateway.stop()
    exchange.stop()
    print("\nfederation demo OK — aggregates travel, patient data cannot")


if __name__ == "__main__":
    main()

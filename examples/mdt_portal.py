#!/usr/bin/env python3
"""The MDT web portal case study (paper §5.1), end to end.

Builds the full Figure 4 deployment — main registration database, event
broker + engine with the three units, application database, firewall-
guarded replication into a read-only DMZ replica, web database and the
portal frontend — runs the backend pipeline and exercises the portal as
several users.

Run:  python examples/mdt_portal.py            # in-process demo
      python examples/mdt_portal.py --serve    # also serve real HTTP
"""

import json
import sys

from repro.mdt import MdtDeployment, WorkloadConfig, generate_workload
from repro.web.http import HttpServer


def main() -> None:
    print("building the ECRIC deployment (Figure 4)…")
    deployment = MdtDeployment(
        generate_workload(
            WorkloadConfig(num_regions=2, mdts_per_region=2, patients_per_mdt=8, seed=2026)
        )
    )

    print("running the backend pipeline: import -> aggregate -> replicate")
    deployment.run_pipeline()
    counts = deployment.main_db.counts()
    print(
        f"  main DB: {counts['patients']} patients, {counts['tumours']} tumours, "
        f"{counts['treatments']} treatments"
    )
    print(f"  events published by producer: {deployment.producer.events_published}")
    print(f"  documents in application DB:  {len(deployment.app_db)}")
    print(f"  documents in DMZ replica:     {len(deployment.dmz_db)} (read-only)")

    # --- the portal through MDT 1's coordinator ---------------------------
    client = deployment.client_for("mdt1")

    print("\nGET / (front page)")
    front = client.get("/")
    print(f"  HTTP {front.status}, {len(front.text)} bytes of HTML")

    print("GET /records/1 (own records, Listing 2)")
    own = client.get("/records/1")
    records = json.loads(own.text)
    print(f"  HTTP {own.status}, {len(records)} records; first patient: "
          f"{records[0]['patient_name']!r}")

    print("GET /records/3 (another region's MDT)")
    other = client.get("/records/3")
    print(f"  HTTP {other.status}: {other.text}")

    print("GET /metrics/2 (same-region aggregate, allowed by P1)")
    metric = client.get("/metrics/2")
    print(f"  HTTP {metric.status}: {metric.text}")

    print("GET /region/region-2 (regional aggregate, visible to all MDTs)")
    regional = client.get("/region/region-2")
    print(f"  HTTP {regional.status}: {regional.text}")

    print("GET /compare/1 (F3 comparison page)")
    compare = client.get("/compare/1")
    print(f"  HTTP {compare.status}, {len(compare.text)} bytes of HTML")

    # --- the audit trail ----------------------------------------------------
    denials = deployment.audit.denials(component="frontend")
    print(f"\nfrontend denials recorded: {len(denials)}")
    for record in denials:
        print(f"  {record.principal}: {record.detail} {record.labels.to_uris()}")

    if "--serve" in sys.argv:
        server = HttpServer(deployment.portal).start()
        print(f"\nserving the portal at {server.url}")
        print("try:  curl -u mdt1:"
              f"{deployment.password_of('mdt1')} {server.url}/records/1")
        try:
            import time

            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            server.stop()
    else:
        print("\nMDT portal demo OK (use --serve for a real HTTP server)")


if __name__ == "__main__":
    main()

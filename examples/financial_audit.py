#!/usr/bin/env python3
"""A second domain on the same middleware: financial transaction auditing.

The paper's intro motivates SafeWeb for "healthcare, financial processing
and government services". This example builds a small brokerage-compliance
system straight on the public API — no MDT code involved:

* trades stream in labelled per *desk* (equities, rates);
* a jailed surveillance unit flags large trades and computes per-desk
  exposure; a privileged archival unit persists results;
* compliance officers query a web dashboard; each officer is cleared for
  one desk, the chief compliance officer for the firm-wide aggregate that
  the archival unit relabels.

Run:  python examples/financial_audit.py
"""

import json

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.policy import parse_policy
from repro.events import Broker, EventProcessingEngine, Unit
from repro.storage.docstore import Database
from repro.storage.webdb import WebDatabase
from repro.taint import json_codec, with_labels
from repro.web import SafeWebApp, SafeWebMiddleware, TestClient
from repro.web.auth import BasicAuthenticator

EQUITIES = conf_label("bank.example", "desk", "equities")
RATES = conf_label("bank.example", "desk", "rates")
FIRM = conf_label("bank.example", "firm_aggregate")

POLICY = parse_policy(
    """
    authority bank.example

    unit surveillance {
        clearance label:conf:bank.example/desk
    }

    unit archive {
        privileged
        clearance label:conf:bank.example/desk
        clearance label:conf:bank.example/firm_aggregate
        declassification label:conf:bank.example/desk
    }
    """
)

TRADES = [
    {"desk": "equities", "trader": "tina", "symbol": "ACME", "notional": "1200000"},
    {"desk": "equities", "trader": "tom", "symbol": "GLOBEX", "notional": "300000"},
    {"desk": "rates", "trader": "rita", "symbol": "GILT30Y", "notional": "9500000"},
    {"desk": "rates", "trader": "ravi", "symbol": "BUND10Y", "notional": "150000"},
]
LARGE_TRADE = 1_000_000


class Surveillance(Unit):
    """Jailed: flags large trades, accumulates per-desk exposure."""

    unit_name = "surveillance"

    def setup(self):
        self.subscribe("/trades", self.on_trade)
        self.subscribe("/control/close_of_day", self.on_close)

    def on_trade(self, event):
        desk = event["desk"]
        notional = int(event["notional"])
        exposure = self.store.get(f"exposure:{desk}", 0) + notional
        self.store.set(f"exposure:{desk}", exposure)
        if notional >= LARGE_TRADE:
            self.publish("/alerts", {
                "desk": desk,
                "trader": event["trader"],
                "symbol": event["symbol"],
                "notional": event["notional"],
            })

    def on_close(self, event):
        desk = event["desk"]
        exposure = self.store.get(f"exposure:{desk}", 0)
        self.publish("/exposures", {"desk": desk, "exposure": str(exposure)})


class Archive(Unit):
    """Privileged: persists alerts; relabels the firm-wide aggregate."""

    unit_name = "archive"

    def __init__(self, db: Database):
        super().__init__()
        self._db = db

    def setup(self):
        self.subscribe("/alerts", self.on_alert)
        self.subscribe("/exposures", self.on_exposure)

    def on_alert(self, event):
        doc = {
            "_id": f"alert-{event.event_id}",
            "type": "alert",
            "desk": event["desk"],
        }
        for field in ("trader", "symbol", "notional"):
            doc[field] = with_labels(event[field], event.labels)
        self._db.put(doc)

    def on_exposure(self, event):
        # Desk exposure stays desk-labelled…
        existing = self._db.get_or_none(f"exposure-{event['desk']}")
        doc = {
            "_id": f"exposure-{event['desk']}",
            "type": "exposure",
            "desk": event["desk"],
            "exposure": with_labels(event["exposure"], event.labels),
        }
        if existing:
            doc["_rev"] = existing["_rev"]
        self._db.put(doc)
        # …and the firm-wide total is declassified and relabelled, the
        # §3.1 aggregate pattern.
        assert not self.principal.privileges.missing_declassification(event.labels)
        totals = [
            int(str(row["exposure"]))
            for row in (self._db.get_or_none("exposure-equities"),
                        self._db.get_or_none("exposure-rates"))
            if row is not None
        ]
        firm_doc = {
            "_id": "exposure-firm",
            "type": "firm",
            "exposure": with_labels(str(sum(totals)), LabelSet([FIRM])),
        }
        existing = self._db.get_or_none("exposure-firm")
        if existing:
            firm_doc["_rev"] = existing["_rev"]
        self._db.put(firm_doc)


def main() -> None:
    audit = AuditLog()
    db = Database("compliance")
    db.define_view("alerts/by_desk", lambda doc: [(doc["desk"], None)] if doc.get("type") == "alert" else [])

    engine = EventProcessingEngine(
        broker=Broker(audit=audit, raise_errors=True),
        policy=POLICY, audit=audit, raise_callback_errors=True,
    )
    engine.register(Surveillance())
    engine.register(Archive(db))

    print("streaming trades…")
    for trade in TRADES:
        desk_label = EQUITIES if trade["desk"] == "equities" else RATES
        engine.publish("/trades", trade, labels=[desk_label], publisher="gateway")
    for desk in ("equities", "rates"):
        engine.publish("/control/close_of_day", {"desk": desk}, publisher="scheduler")

    print(f"  documents archived: {len(db)}")

    # --- the dashboard -------------------------------------------------------
    webdb = WebDatabase(password_iterations=1_000)
    officer = webdb.add_user("eq_officer", "pw")
    webdb.grant_label_privilege(officer, "clearance", EQUITIES.uri)
    webdb.grant_label_privilege(officer, "clearance", FIRM.uri)
    chief = webdb.add_user("cco", "pw")
    for uri in (EQUITIES.uri, RATES.uri, FIRM.uri):
        webdb.grant_label_privilege(chief, "clearance", uri)

    app = SafeWebApp("compliance-dashboard")
    SafeWebMiddleware(BasicAuthenticator(webdb), audit=audit).install(app)

    @app.get("/alerts/:desk")
    def alerts(request):
        rows = db.view("alerts/by_desk", key=request.params["desk"], include_docs=True)
        from repro.web.response import Response

        return Response(json_codec.dumps([r.value for r in rows]),
                        content_type="application/json")

    @app.get("/exposure/firm")
    def firm_exposure(request):
        from repro.web.response import Response

        return Response(json_codec.dumps(db.get("exposure-firm")),
                        content_type="application/json")

    client = TestClient(app)

    own = client.get("/alerts/equities", auth=("eq_officer", "pw"))
    print(f"\neq_officer GET /alerts/equities -> HTTP {own.status}, "
          f"{len(json.loads(own.text))} alert(s)")

    other = client.get("/alerts/rates", auth=("eq_officer", "pw"))
    print(f"eq_officer GET /alerts/rates    -> HTTP {other.status} ({other.text})")

    firm = client.get("/exposure/firm", auth=("eq_officer", "pw"))
    print(f"eq_officer GET /exposure/firm   -> HTTP {firm.status}, "
          f"firm exposure {json.loads(firm.text)['exposure']}")

    cco = client.get("/alerts/rates", auth=("cco", "pw"))
    print(f"cco        GET /alerts/rates    -> HTTP {cco.status}, "
          f"{len(json.loads(cco.text))} alert(s)")

    assert own.ok and firm.ok and cco.ok
    assert other.status == 403
    print("\nfinancial compliance demo OK — same middleware, different domain")


if __name__ == "__main__":
    main()

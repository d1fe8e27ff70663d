"""Property suite: the web frontend's matcher and enforcement ≡ the seed.

Two equivalences:

* **Router** — generated route tables (static, ``:param``, mixed and
  splat patterns, deliberately overlapping) and generated request paths,
  newlines included: ``SafeWebApp.match`` must return exactly the route
  and captures of the independently spelled seed regex scan in
  ``tests/reference/router.py``, including first-match-wins ordering.
* **Enforcement** — a generated operation sequence (requests as
  different principals, privilege grants/revokes, document writes)
  driven through two portals over the same state: the seed
  configuration (uncached authenticator, no page cache) and the tuned
  one (caching authenticator + clearance-keyed page cache). Observable
  outputs (status, body) must be identical at every step — which covers
  the stale-cache scenario: after a revoke, the cached page's label set
  no longer dominates and the tuned portal must deny exactly like the
  seed one.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import conf_label
from repro.core.privileges import CLEARANCE
from repro.storage.docstore import Database
from repro.storage.webdb import WebDatabase
from repro.taint import label
from repro.web import (
    BasicAuthenticator,
    CachingAuthenticator,
    PageCache,
    Response,
    SafeWebApp,
    SafeWebMiddleware,
    TestClient,
)
from repro.web.framework import Route
from tests.reference.router import match_reference

# ---------------------------------------------------------------------------
# Router equivalence
# ---------------------------------------------------------------------------

_STATIC_ALPHABET = string.ascii_lowercase + string.digits + "._-~%"
_PARAM_NAMES = ("id", "mid", "region", "x", "y", "part")

static_segments = st.text(alphabet=_STATIC_ALPHABET, min_size=1, max_size=6)
#: Request path segments may also carry a newline, which no pattern has.
path_segments = st.text(alphabet=_STATIC_ALPHABET + "\n", min_size=1, max_size=6)


@st.composite
def route_patterns(draw) -> str:
    """A route pattern: static, ``:param``, mixed segments, maybe a splat."""
    count = draw(st.integers(min_value=0, max_value=4))
    available = list(_PARAM_NAMES)
    segments = []
    for _ in range(count):
        kind = draw(st.sampled_from(("static", "static", "param", "mixed")))
        if kind == "param" and available:
            segments.append(":" + available.pop(0))
        elif kind == "mixed" and available:
            prefix = draw(static_segments)
            segments.append(prefix + ":" + available.pop(0))
        else:
            segments.append(draw(static_segments))
    pattern = "/" + "/".join(segments)
    if pattern != "/" and not segments:
        pattern = "/"
    if draw(st.booleans()) and draw(st.booleans()):  # ~25%: splat suffix
        pattern = (pattern if pattern != "/" else "") + "/*"
    return pattern


methods = st.sampled_from(("GET", "POST", "PUT", "DELETE", "HEAD"))


@st.composite
def route_tables(draw):
    patterns = draw(st.lists(route_patterns(), min_size=1, max_size=8))
    routes = []
    for index, pattern in enumerate(patterns):
        method = draw(methods)
        routes.append(Route(method, pattern, lambda request, i=index: str(i)))
    return routes


@st.composite
def request_paths(draw, routes):
    """Mostly paths derived from a table pattern, sometimes random ones;
    about one in eight ends in a newline."""
    if routes and draw(st.integers(0, 3)):
        pattern = draw(st.sampled_from(routes)).pattern
        segments = []
        base = pattern[:-2] if pattern.endswith("/*") else pattern
        for part in base.split("/")[1:] if base else []:
            if ":" in part:
                segments.append(draw(path_segments))
            elif draw(st.integers(0, 4)) == 0:
                segments.append(draw(path_segments))  # mutate: likely miss
            else:
                segments.append(part)
        path = "/" + "/".join(segments)
        if pattern.endswith("/*") and draw(st.booleans()):
            path = (path if path != "/" else "") + "/" + draw(path_segments)
    else:
        path = "/" + "/".join(draw(st.lists(path_segments, min_size=0, max_size=4)))
    if draw(st.integers(0, 7)) == 0:
        path += "\n"
    return path


def assert_matches_reference(routes, method, path):
    """``SafeWebApp.match`` over *routes* returns the reference's route
    (the same object, so the same registration index) and captures."""
    app = SafeWebApp()
    for route in routes:
        app.route(route.method, route.pattern)(route.handler)
    found = app.match(method, path)
    reference = match_reference(app._routes, method, path)
    if reference is None:
        assert found is None, (method, path)
    else:
        assert found is not None, (method, path)
        assert found[0] is reference[0], (method, path)
        assert found[1] == reference[1], (method, path)


class TestRouterEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_app_match_equals_reference(self, data):
        routes = data.draw(route_tables())
        method = data.draw(methods)
        path = data.draw(request_paths(routes))
        assert_matches_reference(routes, method, path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_overlapping_patterns_first_match_wins(self, data):
        """Force heavy overlap: same segments, params vs statics."""
        value = data.draw(static_segments)
        routes = [
            Route("GET", pattern, lambda request, i=i: str(i))
            for i, pattern in enumerate(
                data.draw(
                    st.lists(
                        st.sampled_from(
                            (
                                "/a/:x",
                                f"/a/{value}",
                                "/a/:y",
                                "/a/*",
                                "/:top/" + value,
                                "/a/" + value + "/*",
                                "/*",
                            )
                        ),
                        min_size=2,
                        max_size=6,
                    )
                )
            )
        ]
        for path in (
            "/a/" + value,
            "/a/zz",
            "/" + value,
            "/a/" + value + "/deep",
            "/a/" + value + "\n",
        ):
            assert_matches_reference(routes, "GET", path)

    def test_capture_values_url_shapes(self):
        routes = [
            Route("GET", "/health", lambda request: "h"),
            Route("GET", "/records/:mid", lambda request: "r"),
            Route("GET", "/v:version/items/:id", lambda request: "v"),
            Route("GET", "/static/*", lambda request: "s"),
        ]
        for method, path in [
            ("GET", "/health"),
            ("GET", "/health\n"),
            ("GET", "/records/a%20b"),
            ("GET", "/records/7\n"),
            ("GET", "/v2/items/33812769"),
            ("GET", "/static"),
            ("GET", "/static\n"),
            ("GET", "/static/"),
            ("GET", "/static/css/site.css"),
            ("GET", "/static/a\nb"),
            ("GET", "/records/"),
            ("POST", "/records/7"),
        ]:
            assert_matches_reference(routes, method, path)


# ---------------------------------------------------------------------------
# Cached enforcement equivalence
# ---------------------------------------------------------------------------

MDT_A = conf_label("ecric.org.uk", "mdt", "a")
MDT_B = conf_label("ecric.org.uk", "mdt", "b")
LABELS = {"a": MDT_A, "b": MDT_B}
USERS = ("alice", "bob")


def build_world(tuned: bool):
    """One (webdb, docstore, app, client-factory) universe."""
    webdb = WebDatabase(password_iterations=600)
    for name in USERS:
        webdb.add_user(name, f"pw-{name}")
    store = Database(f"world-{'tuned' if tuned else 'seed'}")
    store.put({"_id": "doc-a", "value": "va-0"})
    store.put({"_id": "doc-b", "value": "vb-0"})

    app = SafeWebApp()
    authenticator = (CachingAuthenticator if tuned else BasicAuthenticator)(webdb)
    middleware = SafeWebMiddleware(authenticator, public_paths={"/public"})
    middleware.install(app)

    @app.get("/public")
    def public(request):
        return "public page"

    @app.get("/data/:which")
    def data(request):
        which = str(request.params["which"])
        if which not in LABELS:
            return Response("no such collection", status=404)
        document = store.get(f"doc-{which}")
        return label(f"value={document['value']}", LABELS[which])

    if tuned:
        cache = PageCache()
        cache.cacheable("/data/:which")
        cache.install(app)
        cache.attach_store(store)

    return webdb, store, app


operations = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.sampled_from(USERS), st.sampled_from(("a", "b", "zz"))),
        st.tuples(st.just("grant"), st.sampled_from(USERS), st.sampled_from(("a", "b"))),
        st.tuples(st.just("revoke"), st.sampled_from(USERS), st.sampled_from(("a", "b"))),
        st.tuples(st.just("write"), st.just(""), st.sampled_from(("a", "b"))),
    ),
    min_size=1,
    max_size=14,
)


class TestCachedEnforcementEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=operations)
    def test_tuned_pipeline_observation_equivalent(self, ops):
        seed_webdb, seed_store, seed_app = build_world(tuned=False)
        tuned_webdb, tuned_store, tuned_app = build_world(tuned=True)
        seed_client = TestClient(seed_app)
        tuned_client = TestClient(tuned_app)
        versions = {"a": 0, "b": 0}

        for op, user, which in ops:
            if op == "request":
                seed_result = seed_client.get(
                    f"/data/{which}", auth=(user, f"pw-{user}")
                )
                tuned_result = tuned_client.get(
                    f"/data/{which}", auth=(user, f"pw-{user}")
                )
                assert (seed_result.status, seed_result.text) == (
                    tuned_result.status,
                    tuned_result.text,
                ), (op, user, which)
            elif op == "grant":
                for webdb in (seed_webdb, tuned_webdb):
                    webdb.grant_label_privilege(
                        webdb.user_id(user), CLEARANCE, LABELS[which].uri
                    )
            elif op == "revoke":
                for webdb in (seed_webdb, tuned_webdb):
                    webdb.revoke_label_privilege(
                        webdb.user_id(user), CLEARANCE, LABELS[which].uri
                    )
            else:  # write: the cached page for `which` must go stale
                versions[which] += 1
                for store in (seed_store, tuned_store):
                    document = store.get(f"doc-{which}")
                    document["value"] = f"v{which}-{versions[which]}"
                    store.upsert(document)

    def test_stale_cache_revoked_privilege_not_served(self):
        """The acceptance-criteria scenario, deterministically."""
        webdb, store, app = build_world(tuned=True)
        client = TestClient(app)
        user_id = webdb.user_id("alice")
        webdb.grant_label_privilege(user_id, CLEARANCE, MDT_A.uri)

        first = client.get("/data/a", auth=("alice", "pw-alice"))
        assert first.ok and first.text == "value=va-0"
        second = client.get("/data/a", auth=("alice", "pw-alice"))
        assert second.ok
        assert app.page_cache.hits >= 1  # served from cache

        webdb.revoke_label_privilege(user_id, CLEARANCE, MDT_A.uri)
        denied = client.get("/data/a", auth=("alice", "pw-alice"))
        assert denied.status == 403
        assert "va-0" not in denied.text

    def test_stale_cache_document_write_invalidates(self):
        webdb, store, app = build_world(tuned=True)
        client = TestClient(app)
        webdb.grant_label_privilege(webdb.user_id("bob"), CLEARANCE, MDT_B.uri)

        assert client.get("/data/b", auth=("bob", "pw-bob")).text == "value=vb-0"
        document = store.get("doc-b")
        document["value"] = "vb-fresh"
        store.upsert(document)
        assert client.get("/data/b", auth=("bob", "pw-bob")).text == "value=vb-fresh"


@pytest.fixture(autouse=True)
def _attach_page_cache_handle(monkeypatch):
    """Expose the tuned world's PageCache on the app (plain attribute)."""
    original = PageCache.install

    def install(self, app):
        app.page_cache = self
        return original(self, app)

    monkeypatch.setattr(PageCache, "install", install)

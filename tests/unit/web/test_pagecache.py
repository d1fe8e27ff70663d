"""Unit tests for the clearance-keyed page cache."""

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import conf_label
from repro.core.privileges import CLEARANCE
from repro.storage import WebDatabase
from repro.storage.docstore import Database
from repro.taint import label, mark_user_input
from repro.web import (
    BasicAuthenticator,
    PageCache,
    Response,
    SafeWebApp,
    SafeWebMiddleware,
    TestClient,
)

MDT_1 = conf_label("ecric.org.uk", "mdt", "1")
MDT_2 = conf_label("ecric.org.uk", "mdt", "2")


@pytest.fixture()
def webdb():
    database = WebDatabase(password_iterations=500)
    uid1 = database.add_user("mdt1", "pw1")
    database.grant_label_privilege(uid1, CLEARANCE, MDT_1.uri)
    uid2 = database.add_user("mdt2", "pw2")
    database.grant_label_privilege(uid2, CLEARANCE, MDT_2.uri)
    admin = database.add_user("admin", "pwa", is_admin=True)
    database.grant_label_privilege(admin, CLEARANCE, MDT_1.uri)
    database.grant_label_privilege(admin, CLEARANCE, MDT_2.uri)
    yield database
    database.close()


@pytest.fixture()
def store():
    database = Database("pagecache-app")
    database.put({"_id": "doc-1", "value": "one"})
    return database


@pytest.fixture()
def world(webdb, store):
    app = SafeWebApp()
    app.audit = AuditLog()
    middleware = SafeWebMiddleware(BasicAuthenticator(webdb), audit=app.audit)
    middleware.install(app)
    cache = PageCache()
    cache.cacheable("/page/:which")
    cache.cacheable("/mine", vary_user=True)
    cache.cacheable("/plain")
    cache.install(app)
    cache.attach_store(store)
    renders = {"count": 0}

    @app.get("/page/:which")
    def page(request):
        renders["count"] += 1
        which = str(request.params["which"])
        value = store.get("doc-1")["value"]
        mdt = MDT_1 if which == "1" else MDT_2
        return label(f"page {which}: {value}", mdt)

    @app.get("/mine")
    def mine(request):
        renders["count"] += 1
        return f"hello {request.user.name}"

    @app.get("/plain")
    def plain(request):
        renders["count"] += 1
        return "no labels here"

    @app.post("/plain")
    def plain_post(request):
        return "posted"

    @app.get("/tainted")
    def tainted(request):
        return Response(mark_user_input("raw"), content_type="text/plain")

    return app, cache, renders


class TestHitsAndMisses:
    def test_second_request_served_from_cache(self, world):
        app, cache, renders = world
        client = TestClient(app)
        first = client.get("/page/1", auth=("mdt1", "pw1"))
        second = client.get("/page/1", auth=("mdt1", "pw1"))
        assert first.ok and second.ok
        assert first.text == second.text
        assert renders["count"] == 1
        assert cache.hits == 1 and cache.stores == 1

    def test_hit_carries_the_page_labels_to_the_label_check(self, world):
        # A hit released as plain text would carry no label set, and the
        # middleware's check would pass it unexamined.
        app, cache, _renders = world
        client = TestClient(app)
        fresh = client.get("/page/1", auth=("mdt1", "pw1"))
        hit = client.get("/page/1", auth=("mdt1", "pw1"))
        assert cache.hits == 1
        assert fresh.response.labels.to_uris() == ["label:conf:ecric.org.uk/mdt/1"]
        assert hit.response.labels.to_uris() == ["label:conf:ecric.org.uk/mdt/1"]
        assert hit.text == fresh.text == "page 1: one"
        # One audited release each, made by the after-hook both times.
        assert app.audit.count(component="frontend", operation="respond", decision="allowed") == 2

    def test_headers_and_length_preserved(self, world):
        app, cache, _renders = world
        client = TestClient(app)
        first = client.get("/page/1", auth=("mdt1", "pw1"))
        second = client.get("/page/1", auth=("mdt1", "pw1"))
        assert first.headers == second.headers

    def test_params_key_distinct_entries(self, world):
        app, cache, renders = world
        client = TestClient(app)
        client.get("/page/1", auth=("mdt1", "pw1"))
        client.get("/page/1?extra=x", auth=("mdt1", "pw1"))
        assert renders["count"] == 2

    def test_post_never_cached(self, world):
        app, cache, _renders = world
        client = TestClient(app)
        client.post("/plain", auth=("mdt1", "pw1"))
        client.post("/plain", auth=("mdt1", "pw1"))
        assert cache.stores == 0

    def test_uncacheable_route_untouched(self, world):
        app, cache, _renders = world
        client = TestClient(app)
        assert client.get("/tainted", auth=("mdt1", "pw1")).ok
        assert cache.stores == 0

    def test_tainted_response_not_cached(self, world, webdb, store):
        app, cache, _renders = world
        cache.cacheable("/tainted")
        client = TestClient(app)
        client.get("/tainted", auth=("mdt1", "pw1"))
        assert cache.stores == 0


class TestDominance:
    def test_dominating_principal_shares_entry(self, world):
        app, cache, renders = world
        client = TestClient(app)
        client.get("/page/1", auth=("mdt1", "pw1"))
        result = client.get("/page/1", auth=("admin", "pwa"))
        assert result.ok
        assert renders["count"] == 1  # admin rode mdt1's entry

    def test_non_dominating_principal_regenerates_and_is_denied(self, world):
        app, cache, renders = world
        client = TestClient(app)
        cached = client.get("/page/1", auth=("mdt1", "pw1"))
        assert cached.ok
        denied = client.get("/page/1", auth=("mdt2", "pw2"))
        assert denied.status == 403
        assert "one" not in denied.text
        assert renders["count"] == 2  # regenerated, then the check denied

    def test_revoked_clearance_not_served_cached_page(self, world, webdb):
        app, cache, _renders = world
        client = TestClient(app)
        assert client.get("/page/1", auth=("mdt1", "pw1")).ok
        webdb.revoke_label_privilege(webdb.user_id("mdt1"), CLEARANCE, MDT_1.uri)
        denied = client.get("/page/1", auth=("mdt1", "pw1"))
        assert denied.status == 403

    def test_vary_user_pages_not_shared(self, world):
        app, cache, renders = world
        client = TestClient(app)
        assert client.get("/mine", auth=("mdt1", "pw1")).text == "hello mdt1"
        assert client.get("/mine", auth=("mdt2", "pw2")).text == "hello mdt2"
        assert renders["count"] == 2
        assert client.get("/mine", auth=("mdt1", "pw1")).text == "hello mdt1"
        assert renders["count"] == 2  # second mdt1 request hit


class TestInvalidation:
    def test_document_change_clears_entries(self, world, store):
        app, cache, renders = world
        client = TestClient(app)
        assert "one" in client.get("/page/1", auth=("mdt1", "pw1")).text
        document = store.get("doc-1")
        document["value"] = "two"
        store.upsert(document)
        assert "two" in client.get("/page/1", auth=("mdt1", "pw1")).text
        assert cache.invalidations == 1

    def test_store_discarded_when_epoch_moved_mid_request(self, world, store):
        app, cache, _renders = world
        client = TestClient(app)

        # A write lands between lookup and store: an after-hook that runs
        # before the cache's commits a change, which bumps the epoch.
        def racer(request, response):
            store.put({"_id": "doc-race", "value": "late"})
            return None

        app._after.insert(0, racer)
        client.get("/page/1", auth=("mdt1", "pw1"))
        assert cache.stores == 0

    def test_stats_shape(self, world):
        app, cache, _renders = world
        stats = cache.stats()
        assert set(stats) == {"entries", "hits", "misses", "stores", "invalidations"}

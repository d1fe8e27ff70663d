"""Integration: the refactored frontend on the full MDT deployment.

Covers the pieces the unit suites exercise in isolation, wired together:
cookie sessions + CSRF on the portal's POST routes, the clearance-keyed
page cache opt-in, and the cached authenticator against the real web
database."""

import pytest

from repro.mdt import MdtDeployment, WorkloadConfig, generate_workload
from repro.web.sessions import CSRF_HEADER, SESSION_COOKIE, parse_cookies


@pytest.fixture(scope="module")
def deployment():
    instance = MdtDeployment(
        generate_workload(
            WorkloadConfig(num_regions=2, mdts_per_region=2, patients_per_mdt=4, seed=23)
        ),
        cached_auth=True,
        page_cache=True,
    )
    instance.run_pipeline()
    return instance


def login(deployment, username):
    client = deployment.anonymous_client()
    result = client.post(
        "/login",
        headers={"Content-Type": "application/x-www-form-urlencoded"},
        body=f"username={username}&password={deployment.password_of(username)}",
    )
    assert result.status == 201
    token = parse_cookies(result.headers["Set-Cookie"])[SESSION_COOKIE]
    return client, token, result.text  # (client, session token, csrf token)


class TestPortalSessions:
    def test_login_and_browse_with_cookie(self, deployment):
        client, token, _csrf = login(deployment, "mdt1")
        result = client.get("/", headers={"Cookie": f"{SESSION_COOKIE}={token}"})
        assert result.ok
        assert "MDT 1" in result.text

    def test_post_feedback_needs_csrf_for_cookie_sessions(self, deployment):
        client, token, csrf = login(deployment, "mdt1")
        rejected = client.post(
            "/feedback",
            headers={
                "Cookie": f"{SESSION_COOKIE}={token}",
                "Content-Type": "application/x-www-form-urlencoded",
            },
            body="message=hello",
        )
        assert rejected.status == 403
        accepted = client.post(
            "/feedback",
            headers={
                "Cookie": f"{SESSION_COOKIE}={token}",
                CSRF_HEADER: csrf,
                "Content-Type": "application/x-www-form-urlencoded",
            },
            body="message=hello",
        )
        assert accepted.status == 202

    def test_admin_route_needs_csrf_for_cookie_sessions(self, deployment):
        # Provision an admin account for the session flow.
        deployment.webdb.add_user("sessadmin", "adminpw", is_admin=True)
        deployment.workload.user_passwords["sessadmin"] = "adminpw"
        client, token, csrf = login(deployment, "sessadmin")
        rejected = client.post(
            "/admin/mdts",
            headers={
                "Cookie": f"{SESSION_COOKIE}={token}",
                "Content-Type": "application/x-www-form-urlencoded",
            },
            body="mdt_id=1&username=newmdt&password=pw",
        )
        assert rejected.status == 403
        accepted = client.post(
            "/admin/mdts",
            headers={
                "Cookie": f"{SESSION_COOKIE}={token}",
                CSRF_HEADER: csrf,
                "Content-Type": "application/x-www-form-urlencoded",
            },
            body="mdt_id=1&username=newmdt&password=pw",
        )
        assert accepted.status == 201

    def test_basic_auth_posts_stay_csrf_immune(self, deployment):
        client = deployment.client_for("mdt1")
        result = client.post(
            "/feedback",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="message=via+basic",
        )
        assert result.status == 202

    def test_sessions_live_in_the_web_database(self, deployment):
        before = deployment.webdb.session_count()
        _client, token, _csrf = login(deployment, "mdt2")
        assert deployment.webdb.session_user(token) == deployment.webdb.user_id("mdt2")
        assert deployment.webdb.session_count() == before + 1


class TestPortalPageCache:
    def test_front_page_cached_per_user(self, deployment):
        cache = deployment.portal.page_cache
        client = deployment.client_for("mdt1")
        before = cache.hits
        first = client.get("/")
        second = client.get("/")
        assert first.ok and second.ok
        assert first.text == second.text
        assert cache.hits > before

    def test_records_shared_under_dominance(self, deployment):
        client = deployment.client_for("mdt3")
        first = client.get("/records/3")
        stores_after_first = deployment.portal.page_cache.stores
        second = client.get("/records/3")
        assert first.ok and second.ok
        assert first.json() == second.json()
        assert deployment.portal.page_cache.stores == stores_after_first

    def test_replication_invalidates_cached_pages(self, deployment):
        client = deployment.client_for("mdt4")
        assert client.get("/records/4").ok
        invalidations = deployment.portal.page_cache.invalidations
        deployment.replicate()  # no-op pass: no changes, no invalidation
        new_doc = {"_id": "record-cache-test", "type": "record", "mid": "4"}
        deployment.app_db.put(new_doc)
        deployment.replicate()
        assert deployment.portal.page_cache.invalidations > invalidations

    def test_label_check_still_blocks_cross_mdt(self, deployment):
        client = deployment.client_for("mdt1")
        client2 = deployment.client_for("mdt2")
        assert client2.get("/records/2").ok  # primes the cache
        denied = client.get("/records/2")
        assert denied.status == 403

    def test_cache_hit_cannot_skip_the_listing3_acl_check(self, deployment):
        """Label-cleared but ACL-denied: the fresh path 403s via the
        application check, and a warm cache must not change that —
        /records varies on the user, so the cleared intruder never rides
        the owner's entry."""
        from repro.core.privileges import CLEARANCE
        from repro.mdt.labels import mdt_label

        intruder_id = deployment.webdb.add_user("label-only", "pw")
        deployment.webdb.grant_label_privilege(
            intruder_id, CLEARANCE, mdt_label("1").uri
        )  # clearance without any acl_privileges row
        deployment.workload.user_passwords["label-only"] = "pw"

        owner = deployment.client_for("mdt1")
        assert owner.get("/records/1").ok  # warms the cache
        intruder = deployment.client_for("label-only")
        assert intruder.get("/records/1").status == 403

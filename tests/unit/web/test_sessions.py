"""Unit tests for cookie sessions and CSRF protection."""

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import conf_label
from repro.core.privileges import CLEARANCE
from repro.storage import WebDatabase
from repro.taint import label
from repro.web import PageCache, SafeWebApp, SafeWebMiddleware, TestClient
from repro.web.auth import BasicAuthenticator, CachingAuthenticator
from repro.web.sessions import (
    CSRF_FIELD,
    CSRF_HEADER,
    SESSION_COOKIE,
    SessionMiddleware,
    csrf_token_for,
    parse_cookies,
)

MDT_1 = conf_label("ecric.org.uk", "mdt", "1")


@pytest.fixture()
def webdb():
    database = WebDatabase(password_iterations=1_000)
    user_id = database.add_user("mdt1", "secret1", mdt="1")
    database.grant_label_privilege(user_id, CLEARANCE, MDT_1.uri)
    yield database
    database.close()


@pytest.fixture(params=[BasicAuthenticator, CachingAuthenticator])
def app(webdb, request):
    application = SafeWebApp()
    audit = AuditLog()
    # Cookie and Basic requests share one authenticator, so both kinds
    # must behave identically whether or not it caches.
    authenticator = request.param(webdb)
    safeweb = SafeWebMiddleware(authenticator, audit=audit, public_paths={"/login"})
    sessions = SessionMiddleware(webdb, authenticator, audit=audit)
    sessions.install(application)  # session resolution first
    safeweb.install(application)
    application.session_middleware = sessions
    application.authenticator = authenticator
    application.audit = audit

    @application.get("/whoami")
    def whoami(request):
        return request.user.name

    @application.get("/secret")
    def secret(request):
        return label("mdt1 data", MDT_1)

    @application.post("/change")
    def change(request):
        return "changed"

    return application


def login(client, username="mdt1", password="secret1"):
    result = client.post(
        "/login",
        headers={"Content-Type": "application/x-www-form-urlencoded"},
        body=f"username={username}&password={password}",
    )
    assert result.status == 201
    cookie = parse_cookies(result.headers["Set-Cookie"])[SESSION_COOKIE]
    return cookie, result.text  # (session token, csrf token)


class TestParseCookies:
    def test_basic(self):
        assert parse_cookies("a=1; b=2") == {"a": "1", "b": "2"}

    def test_none_and_garbage(self):
        assert parse_cookies(None) == {}
        assert parse_cookies("novalue") == {}


class TestLogin:
    def test_login_sets_cookie_and_returns_csrf(self, app):
        client = TestClient(app)
        token, csrf = login(client)
        assert token
        assert csrf == csrf_token_for(token, app.session_middleware.csrf_key)

    def test_csrf_key_is_deployment_specific(self, app, webdb):
        # Same session token, different deployment (fresh random key):
        # the derived CSRF tokens must differ.
        other = SessionMiddleware(webdb, BasicAuthenticator(webdb), csrf_key=b"x" * 32)
        client = TestClient(app)
        token, csrf = login(client)
        assert csrf != csrf_token_for(token, other.csrf_key)

    def test_csrf_key_persists_in_webdb(self, app, webdb):
        # A middleware rebuilt over the same web database (a replica)
        # must adopt the persisted key, not mint a new one.
        replica = SessionMiddleware(webdb, BasicAuthenticator(webdb))
        assert replica.csrf_key == app.session_middleware.csrf_key

    @pytest.mark.parametrize("username", ["mdt1", "ghost", ""])
    def test_bad_credentials_401_and_audited(self, app, username):
        result = TestClient(app).post(
            "/login",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body=f"username={username}&password=wrong",
        )
        assert result.status == 401
        assert "Set-Cookie" not in result.headers
        assert app.audit.count(
            component="frontend", operation="login", decision="denied"
        ) == 1

    def test_session_authenticates_requests(self, app):
        client = TestClient(app)
        token, _csrf = login(client)
        result = client.get("/whoami", headers={"Cookie": f"{SESSION_COOKIE}={token}"})
        assert result.ok
        assert result.text == "mdt1"

    def test_label_check_still_applies_to_sessions(self, app, webdb):
        client = TestClient(app)
        # A second user without clearance for MDT 1.
        webdb.add_user("intruder", "pw")
        token, _csrf = login(client, "intruder", "pw")
        result = client.get("/secret", headers={"Cookie": f"{SESSION_COOKIE}={token}"})
        assert result.status == 403

    def test_cleared_session_can_read(self, app):
        client = TestClient(app)
        token, _csrf = login(client)
        result = client.get("/secret", headers={"Cookie": f"{SESSION_COOKIE}={token}"})
        assert result.ok

    def test_unknown_cookie_falls_back_to_basic_auth_requirement(self, app):
        result = TestClient(app).get(
            "/whoami", headers={"Cookie": f"{SESSION_COOKIE}=bogus"}
        )
        assert result.status == 401

    def test_basic_auth_still_works(self, app):
        result = TestClient(app).get("/whoami", auth=("mdt1", "secret1"))
        assert result.ok

    def test_logout_invalidates(self, app, webdb):
        client = TestClient(app)
        token, csrf = login(client)
        result = client.post(
            "/logout",
            headers={
                "Cookie": f"{SESSION_COOKIE}={token}",
                CSRF_HEADER: csrf,
            },
        )
        assert result.status == 204
        result = client.get("/whoami", headers={"Cookie": f"{SESSION_COOKIE}={token}"})
        assert result.status == 401


class TestLoginRotatesTheSession:
    def test_login_with_a_live_cookie_kills_that_session(self, app, webdb):
        # Fixation: a cookie planted before the victim logs in (or any
        # session the browser still carries) must not survive the login.
        client = TestClient(app)
        planted, _csrf = login(client)
        result = client.post(
            "/login",
            headers={
                "Content-Type": "application/x-www-form-urlencoded",
                "Cookie": f"{SESSION_COOKIE}={planted}",
            },
            body="username=mdt1&password=secret1",
        )
        assert result.status == 201
        fresh = parse_cookies(result.headers["Set-Cookie"])[SESSION_COOKIE]
        assert fresh != planted
        assert client.get(
            "/whoami", headers={"Cookie": f"{SESSION_COOKIE}={planted}"}
        ).status == 401
        assert client.get("/whoami", headers={"Cookie": f"{SESSION_COOKIE}={fresh}"}).ok
        assert webdb.session_count() == 1

    def test_failed_login_leaves_the_presented_session_alone(self, app):
        client = TestClient(app)
        token, _csrf = login(client)
        result = client.post(
            "/login",
            headers={
                "Content-Type": "application/x-www-form-urlencoded",
                "Cookie": f"{SESSION_COOKIE}={token}",
            },
            body="username=mdt1&password=wrong",
        )
        assert result.status == 401
        assert client.get("/whoami", headers={"Cookie": f"{SESSION_COOKIE}={token}"}).ok


class TestOneResolver:
    """Cookie principals come from the authenticator the Basic hook uses."""

    def test_cookie_requests_ride_the_principal_cache(self, app, webdb, monkeypatch):
        calls = []
        principal_for = webdb.principal_for
        monkeypatch.setattr(
            webdb, "principal_for", lambda name: calls.append(name) or principal_for(name)
        )
        client = TestClient(app)
        token, _csrf = login(client)
        for _ in range(5):
            assert client.get(
                "/secret", headers={"Cookie": f"{SESSION_COOKIE}={token}"}
            ).ok
        if isinstance(app.authenticator, CachingAuthenticator):
            assert calls == ["mdt1"]
            assert app.authenticator.principal_hits == 4
        else:
            assert calls == ["mdt1"] * 5
        assert app.audit.count(component="frontend", operation="session") == 5

    def test_cookie_and_basic_share_one_principal(self, app):
        seen = []
        app.before(lambda request: seen.append(request.user))
        client = TestClient(app)
        token, _csrf = login(client)
        assert client.get("/whoami", headers={"Cookie": f"{SESSION_COOKIE}={token}"}).ok
        assert client.get("/whoami", auth=("mdt1", "secret1")).ok
        # One persistent PrivilegeSet (and its clearance memo) per user
        # exactly when the authenticator keeps principals.
        assert (seen[-1] is seen[-2]) == isinstance(
            app.authenticator, CachingAuthenticator
        )
        assert seen[-1].privileges == seen[-2].privileges

    @pytest.mark.parametrize("page_cache", [False, True])
    def test_revoke_and_grant_reach_the_very_next_cookie_request(
        self, app, webdb, page_cache
    ):
        cache = None
        if page_cache:
            cache = PageCache(audit=app.audit)
            cache.cacheable("/secret", vary_user=True)
            cache.install(app)
        client = TestClient(app)
        token, _csrf = login(client)
        cookie = {"Cookie": f"{SESSION_COOKIE}={token}"}
        user_id = webdb.user_id("mdt1")
        assert client.get("/secret", headers=cookie).ok
        assert client.get("/secret", headers=cookie).ok  # warm every cache
        assert cache is None or cache.hits == 1

        webdb.revoke_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        assert client.get("/secret", headers=cookie).status == 403
        assert app.audit.count(
            component="frontend", operation="respond", decision="denied"
        ) == 1

        webdb.grant_label_privilege(user_id, CLEARANCE, MDT_1.uri)
        assert client.get("/secret", headers=cookie).ok


class TestCsrf:
    def test_post_without_token_rejected(self, app):
        client = TestClient(app)
        token, _csrf = login(client)
        result = client.post("/change", headers={"Cookie": f"{SESSION_COOKIE}={token}"})
        assert result.status == 403
        assert "CSRF" in result.text

    def test_post_with_header_token_accepted(self, app):
        client = TestClient(app)
        token, csrf = login(client)
        result = client.post(
            "/change",
            headers={"Cookie": f"{SESSION_COOKIE}={token}", CSRF_HEADER: csrf},
        )
        assert result.ok

    def test_post_with_form_token_accepted(self, app):
        client = TestClient(app)
        token, csrf = login(client)
        result = client.post(
            "/change",
            headers={
                "Cookie": f"{SESSION_COOKIE}={token}",
                "Content-Type": "application/x-www-form-urlencoded",
            },
            body=f"{CSRF_FIELD}={csrf}",
        )
        assert result.ok

    def test_wrong_token_rejected(self, app):
        client = TestClient(app)
        token, _csrf = login(client)
        result = client.post(
            "/change",
            headers={"Cookie": f"{SESSION_COOKIE}={token}", CSRF_HEADER: "forged"},
        )
        assert result.status == 403

    def test_basic_auth_posts_are_csrf_immune(self, app):
        result = TestClient(app).post("/change", auth=("mdt1", "secret1"))
        assert result.ok

    def test_get_requests_never_need_token(self, app):
        client = TestClient(app)
        token, _csrf = login(client)
        result = client.get("/whoami", headers={"Cookie": f"{SESSION_COOKIE}={token}"})
        assert result.ok

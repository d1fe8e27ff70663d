"""Unit tests for HTTP Basic auth and the SafeWeb middleware."""

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import conf_label
from repro.core.privileges import CLEARANCE
from repro.exceptions import AuthenticationError
from repro.storage import WebDatabase
from repro.taint import label, mark_user_input
from repro.web import BasicAuthenticator, SafeWebApp, SafeWebMiddleware, TestClient
from repro.web.auth import encode_basic, parse_basic_header
from repro.web.middleware import TIMINGS_KEY

MDT_1 = conf_label("ecric.org.uk", "mdt", "1")
MDT_2 = conf_label("ecric.org.uk", "mdt", "2")


@pytest.fixture()
def webdb():
    database = WebDatabase()
    uid1 = database.add_user("mdt1", "secret1", mdt="1")
    database.grant_label_privilege(uid1, CLEARANCE, MDT_1.uri)
    uid2 = database.add_user("mdt2", "secret2", mdt="2")
    database.grant_label_privilege(uid2, CLEARANCE, MDT_2.uri)
    yield database
    database.close()


class TestBasicHeaderParsing:
    def test_round_trip(self):
        header = encode_basic("alice", "s3cret:with:colons")
        assert parse_basic_header(header) == ("alice", "s3cret:with:colons")

    @pytest.mark.parametrize(
        "bad",
        [None, "", "Bearer token", "Basic", "Basic !!!", "Basic bm9jb2xvbg=="],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(AuthenticationError):
            parse_basic_header(bad)


class TestAuthenticator:
    def test_valid_credentials(self, webdb):
        auth = BasicAuthenticator(webdb)
        principal = auth.authenticate(encode_basic("mdt1", "secret1"))
        assert principal.name == "mdt1"
        assert principal.mdt_id == "1"
        assert principal.privileges.grants(CLEARANCE, MDT_1)

    def test_wrong_password(self, webdb):
        with pytest.raises(AuthenticationError):
            BasicAuthenticator(webdb).authenticate(encode_basic("mdt1", "nope"))

    def test_unknown_user(self, webdb):
        with pytest.raises(AuthenticationError):
            BasicAuthenticator(webdb).authenticate(encode_basic("ghost", "x"))

    def test_case_sensitive_by_default(self, webdb):
        with pytest.raises(AuthenticationError):
            BasicAuthenticator(webdb).authenticate(encode_basic("MDT1", "secret1"))


def build_app(webdb, audit=None, **middleware_kwargs):
    app = SafeWebApp()
    middleware = SafeWebMiddleware(
        BasicAuthenticator(webdb), audit=audit, **middleware_kwargs
    )
    middleware.install(app)
    return app, middleware


class TestMiddlewareAuth:
    def test_unauthenticated_request_rejected(self, webdb):
        app, _middleware = build_app(webdb)

        @app.get("/x")
        def x(request):
            return "never"

        result = TestClient(app).get("/x")
        assert result.status == 401

    def test_authenticated_request_passes(self, webdb):
        app, _middleware = build_app(webdb)

        @app.get("/x")
        def x(request):
            return f"hello {request.user.name}"

        result = TestClient(app).get("/x", auth=("mdt1", "secret1"))
        assert result.ok
        assert result.text == "hello mdt1"

    def test_public_paths_skip_auth(self, webdb):
        app, _middleware = build_app(webdb, public_paths={"/health"})

        @app.get("/health")
        def health(request):
            return "up"

        assert TestClient(app).get("/health").ok

    def test_timings_recorded(self, webdb):
        app, _middleware = build_app(webdb)
        seen = {}

        @app.get("/x")
        def x(request):
            seen["request"] = request
            return "ok"

        TestClient(app).get("/x", auth=("mdt1", "secret1"))
        timings = seen["request"].env[TIMINGS_KEY]
        assert "authentication" in timings
        assert "privilege_fetching" in timings


class TestMiddlewareLabelCheck:
    """Figure 3 step 4: the response label check."""

    def test_cleared_response_released(self, webdb):
        app, _middleware = build_app(webdb)

        @app.get("/mine")
        def mine(request):
            return label("my mdt data", MDT_1)

        result = TestClient(app).get("/mine", auth=("mdt1", "secret1"))
        assert result.ok
        assert result.text == "my mdt data"

    def test_uncleared_response_blocked(self, webdb):
        audit = AuditLog()
        app, _middleware = build_app(webdb, audit=audit)

        @app.get("/other")
        def other(request):
            return label("mdt2 confidential", MDT_2)

        result = TestClient(app).get("/other", auth=("mdt1", "secret1"))
        assert result.status == 403
        assert "mdt2 confidential" not in result.text
        denials = audit.denials(component="frontend")
        assert len(denials) == 1
        assert denials[0].principal == "mdt1"

    def test_partial_clearance_blocked(self, webdb):
        app, _middleware = build_app(webdb)

        @app.get("/mixed")
        def mixed(request):
            return label("a", MDT_1) + label("b", MDT_2)

        result = TestClient(app).get("/mixed", auth=("mdt1", "secret1"))
        assert result.status == 403

    def test_unlabeled_response_released(self, webdb):
        app, _middleware = build_app(webdb)

        @app.get("/public")
        def public(request):
            return "nothing secret"

        assert TestClient(app).get("/public", auth=("mdt1", "secret1")).ok

    def test_labels_in_containers_checked(self, webdb):
        app, _middleware = build_app(webdb)
        from repro.taint import json_codec

        @app.get("/rows")
        def rows(request):
            data = [{"v": label("x", MDT_2)}]
            return json_codec.dumps(data)

        result = TestClient(app).get("/rows", auth=("mdt1", "secret1"))
        assert result.status == 403

    def test_check_can_be_disabled_for_baseline(self, webdb):
        app, _middleware = build_app(webdb, check_labels=False)

        @app.get("/other")
        def other(request):
            return label("mdt2 data", MDT_2)

        # Baseline mode (the paper's "without SafeWeb" measurements):
        # the data leaks, demonstrating exactly what the check prevents.
        result = TestClient(app).get("/other", auth=("mdt1", "secret1"))
        assert result.ok


class TestMiddlewareTaintCheck:
    def test_tainted_html_rejected(self, webdb):
        app, _middleware = build_app(webdb)

        @app.get("/echo")
        def echo(request):
            return "<p>" + request.params.get("q", "") + "</p>"

        result = TestClient(app).get("/echo?q=<script>", auth=("mdt1", "secret1"))
        assert result.status == 400

    def test_escaped_html_accepted(self, webdb):
        from repro.taint import html_escape

        app, _middleware = build_app(webdb)

        @app.get("/echo")
        def echo(request):
            return "<p>" + html_escape(request.params.get("q", "")) + "</p>"

        result = TestClient(app).get("/echo?q=<script>", auth=("mdt1", "secret1"))
        assert result.ok
        assert "&lt;script&gt;" in result.text

    def test_taint_check_skips_non_html(self, webdb):
        from repro.web import Response

        app, _middleware = build_app(webdb)

        @app.get("/data")
        def data(request):
            return Response(
                mark_user_input("raw"), content_type="application/octet-stream"
            )

        assert TestClient(app).get("/data", auth=("mdt1", "secret1")).ok

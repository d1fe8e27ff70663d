"""Unit tests for the Sinatra-like framework."""

import pytest

from repro.exceptions import SafeWebError
from repro.taint.labeled import is_user_tainted
from repro.web import Response, SafeWebApp, TestClient, halt


@pytest.fixture()
def app() -> SafeWebApp:
    return SafeWebApp()


@pytest.fixture()
def client(app) -> TestClient:
    return TestClient(app)


class TestRouting:
    def test_basic_get(self, app, client):
        @app.get("/hello")
        def hello(request):
            return "hi"

        assert client.get("/hello").text == "hi"

    def test_route_params(self, app, client):
        @app.get("/records/:mid")
        def records(request):
            return f"mid={request.params['mid']}"

        assert client.get("/records/42").text == "mid=42"

    def test_multiple_params(self, app, client):
        @app.get("/a/:x/b/:y")
        def handler(request):
            return request.params["x"] + "-" + request.params["y"]

        assert client.get("/a/1/b/2").text == "1-2"

    def test_params_are_user_tainted(self, app, client):
        @app.get("/records/:mid")
        def records(request):
            assert is_user_tainted(request.params["mid"])
            return "ok"

        assert client.get("/records/42?q=x").ok

    def test_query_params(self, app, client):
        @app.get("/search")
        def search(request):
            return request.params.get("q", "none")

        assert client.get("/search?q=cancer").text == "cancer"
        assert client.get("/search").text == "none"

    def test_form_params(self, app, client):
        @app.post("/submit")
        def submit(request):
            return request.params["field"]

        result = client.post(
            "/submit",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="field=value",
        )
        assert result.text == "value"

    def test_method_dispatch(self, app, client):
        @app.get("/thing")
        def get_thing(request):
            return "got"

        @app.post("/thing")
        def post_thing(request):
            return "posted"

        assert client.get("/thing").text == "got"
        assert client.post("/thing").text == "posted"

    def test_404(self, app, client):
        assert client.get("/nowhere").status == 404

    @pytest.mark.parametrize(
        "path, status, mid",
        [
            ("/records/a%20b", 200, "a b"),
            ("/records/1%2F2", 200, "1/2"),
            ("/records/..%2Fadmin", 200, "../admin"),
            ("/records/a/b", 404, None),
        ],
    )
    def test_url_decoding_in_captures(self, app, client, path, status, mid):
        # Matching runs on the raw path; captures are unquoted after it,
        # so an encoded '/' stays inside its segment and reaches no other
        # route.
        reached = []

        @app.get("/records/:mid")
        def records(request):
            reached.append(("records", request.params["mid"]))
            return request.params["mid"]

        @app.get("/admin")
        def admin(request):
            reached.append(("admin", None))
            return "admin"

        assert client.get(path).status == status
        if mid is None:
            assert reached == []
        else:
            assert reached == [("records", mid)]
            assert is_user_tainted(reached[0][1])

    def test_match_is_whole_path(self, app):
        @app.get("/health")
        def health(request):
            return "ok"

        @app.get("/static/*")
        def static(request):
            return "static"

        assert app.match("GET", "/health\n") is None
        assert app.match("GET", "/static\n") is None
        assert app.match("GET", "/health")[0].pattern == "/health"

    def test_splat_routes(self, app, client):
        @app.get("/static/*")
        def static(request):
            return "static"

        assert client.get("/static/css/site.css").text == "static"

    @pytest.mark.parametrize(
        "pattern", ["no-slash", "records/:mid", "*", "", "/a/:x/b/:x", "/:splat/*"]
    )
    def test_bad_pattern_rejected(self, app, client, pattern):
        # Rejected at registration, before any regex is compiled: a
        # repeated capture name (a trailing "/*" names one "splat") would
        # otherwise surface as a bare re.error.
        with pytest.raises(SafeWebError):
            app.get(pattern)(lambda request: "x")
        assert client.get("/").status == 404


class TestReturnValues:
    def test_status_body_tuple(self, app, client):
        @app.get("/created")
        def created(request):
            return 201, "made"

        result = client.get("/created")
        assert result.status == 201
        assert result.text == "made"

    def test_full_tuple(self, app, client):
        @app.get("/custom")
        def custom(request):
            return 202, {"X-Custom": "1"}, "body"

        result = client.get("/custom")
        assert result.status == 202
        assert result.headers["X-Custom"] == "1"

    def test_response_object(self, app, client):
        @app.get("/resp")
        def resp(request):
            return Response("json!", content_type="application/json")

        result = client.get("/resp")
        assert result.headers["Content-Type"] == "application/json"

    def test_none_is_204(self, app, client):
        @app.get("/empty")
        def empty(request):
            return None

        assert client.get("/empty").status == 204


class TestFilters:
    def test_before_filter_runs(self, app, client):
        @app.before
        def stamp(request):
            request.env["stamp"] = "seen"

        @app.get("/x")
        def x(request):
            return request.env["stamp"]

        assert client.get("/x").text == "seen"

    def test_after_filter_can_replace_response(self, app, client):
        @app.get("/x")
        def x(request):
            return "original"

        @app.after
        def rewrite(request, response):
            return Response("rewritten")

        assert client.get("/x").text == "rewritten"

    def test_after_filter_order(self, app, client):
        calls = []

        @app.get("/x")
        def x(request):
            return "ok"

        @app.after
        def first(request, response):
            calls.append("first")

        @app.after
        def second(request, response):
            calls.append("second")

        client.get("/x")
        assert calls == ["first", "second"]

    def test_before_filter_not_run_for_unmatched_routes(self, app, client):
        calls = []

        @app.before
        def count(request):
            calls.append(1)

        client.get("/missing")
        assert calls == []


class TestHaltAndErrors:
    def test_halt(self, app, client):
        @app.get("/teapot")
        def teapot(request):
            halt(418, "short and stout")

        result = client.get("/teapot")
        assert result.status == 418
        assert result.text == "short and stout"

    def test_unhandled_error_is_500(self, app, client):
        @app.get("/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        result = client.get("/boom")
        assert result.status == 500
        assert "kaboom" not in result.text  # no internals leak

    def test_custom_error_handler(self, app, client):
        class TeaTime(Exception):
            pass

        @app.error(TeaTime)
        def handle_teatime(request, error):
            return 418, "custom"

        @app.get("/tea")
        def tea(request):
            raise TeaTime()

        result = client.get("/tea")
        assert result.status == 418
        assert result.text == "custom"

    def test_authentication_error_is_401(self, app, client):
        from repro.exceptions import AuthenticationError

        @app.get("/secure")
        def secure(request):
            raise AuthenticationError("nope")

        result = client.get("/secure")
        assert result.status == 401
        assert "WWW-Authenticate" in result.headers

    def test_disclosure_error_is_403(self, app, client):
        from repro.exceptions import DisclosureError

        @app.get("/leak")
        def leak(request):
            raise DisclosureError("would leak")

        result = client.get("/leak")
        assert result.status == 403
        assert "confidential" in result.text

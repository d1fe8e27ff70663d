"""Unit tests for Response plumbing, the test client and the HTTP server."""

import json

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.taint import label, mark_user_input
from repro.web import Response, SafeWebApp, TestClient
from repro.web.http import ClientResult, HttpServer
from repro.web.request import Request

MDT = conf_label("ecric.org.uk", "mdt", "1")


class TestResponse:
    def test_defaults(self):
        response = Response("body")
        assert response.status == 200
        assert response.content_type.startswith("text/html")
        assert response.reason == "OK"

    def test_labels_and_taint_introspection(self):
        response = Response(label("secret", MDT))
        assert response.labels == LabelSet([MDT])
        assert not response.user_tainted
        tainted = Response(mark_user_input("<x>"))
        assert tainted.user_tainted

    def test_labels_inside_containers(self):
        response = Response([label("a", MDT)])
        assert response.labels == LabelSet([MDT])

    def test_finalize_strips_labels_and_sets_length(self):
        response = Response(label("secret", MDT))
        status, headers, payload = response.finalize()
        assert status == 200
        assert payload == b"secret"
        assert headers["Content-Length"] == "6"

    def test_finalize_bytes_body(self):
        response = Response(b"raw")
        assert response.finalize()[2] == b"raw"

    def test_finalize_none_body(self):
        assert Response(None).finalize()[2] == b""

    def test_coerce_variants(self):
        assert Response.coerce("x").status == 200
        assert Response.coerce((201, "made")).status == 201
        full = Response.coerce((202, {"X-H": "1"}, "b"))
        assert full.headers["X-H"] == "1"
        assert Response.coerce(None).status == 204
        existing = Response("x", status=418)
        assert Response.coerce(existing) is existing

    def test_unknown_status_reason(self):
        assert Response("x", status=299).reason == "Unknown"

    def test_content_type_keyword_sets_the_header(self):
        response = Response("{}", content_type="application/json")
        assert response.content_type == "application/json"
        assert response.finalize()[1]["Content-Type"] == "application/json"

    def test_content_type_from_headers_is_kept(self):
        response = Response("x", headers={"Content-Type": "text/plain"})
        assert response.content_type == "text/plain"


class TestRequest:
    def test_query_parsing(self):
        request = Request("GET", "/p?a=1&b=two&empty=")
        assert request.params["a"] == "1"
        assert request.params["empty"] == ""
        assert request.path == "/p"

    def test_headers_case_insensitive(self):
        request = Request("GET", "/", headers={"X-Thing": "v"})
        assert request.header("x-thing") == "v"
        assert request.header("X-THING") == "v"
        assert request.header("missing", "d") == "d"

    def test_body_tainted(self):
        from repro.taint import is_user_tainted

        request = Request("POST", "/", body="payload")
        assert is_user_tainted(request.body)

    def test_method_uppercased(self):
        assert Request("get", "/").method == "GET"

    def test_form_body_fields_become_tainted_params(self):
        from repro.taint import is_user_tainted

        request = Request(
            "POST",
            "/p?a=1",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="b=two&c=",
        )
        assert request.params == {"a": "1", "b": "two", "c": ""}
        assert all(is_user_tainted(value) for value in request.params.values())

    def test_body_of_other_content_types_is_not_parsed_as_form(self):
        request = Request("POST", "/", headers={"Content-Type": "application/json"}, body="b=two")
        assert request.params == {}

    def test_binary_body_is_decoded_lazily_with_replacement(self):
        from repro.taint import is_user_tainted

        request = Request("POST", "/", body=b"ok\xff")
        assert request.raw_body == b"ok\xff"
        assert request.body == "ok\ufffd"
        assert is_user_tainted(request.body)

    def test_route_params_are_unquoted_and_tainted(self):
        from repro.taint import is_user_tainted

        request = Request("GET", "/records/a%20b")
        request.add_route_params({"mid": "a%20b"})
        assert request.params["mid"] == "a b"
        assert is_user_tainted(request.params["mid"])


class TestClientResult:
    def test_json_helper(self):
        result = ClientResult(200, {}, json.dumps({"a": 1}))
        assert result.json() == {"a": 1}
        assert result.ok

    def test_not_ok(self):
        assert not ClientResult(404, {}, "").ok


class TestTestClient:
    def test_all_verbs(self):
        app = SafeWebApp()
        for verb in ("get", "post", "put", "delete"):
            app.route(verb.upper(), f"/{verb}")(lambda request, v=verb: v)
        client = TestClient(app)
        assert client.get("/get").text == "get"
        assert client.post("/post").text == "post"
        assert client.put("/put").text == "put"
        assert client.delete("/delete").text == "delete"

    def test_last_request_retained(self):
        app = SafeWebApp()

        @app.get("/x")
        def x(request):
            request.env["marker"] = 1
            return "ok"

        client = TestClient(app)
        client.get("/x")
        assert client.last_request.env["marker"] == 1


class TestHttpServerLifecycle:
    def test_start_stop_and_url(self):
        app = SafeWebApp()

        @app.get("/ping")
        def ping(request):
            return "pong"

        server = HttpServer(app).start()
        try:
            assert server.url.startswith("http://127.0.0.1:")
            import urllib.request

            with urllib.request.urlopen(f"{server.url}/ping", timeout=5) as reply:
                assert reply.read() == b"pong"
        finally:
            server.stop()

    def test_post_body_roundtrip(self):
        app = SafeWebApp()

        @app.post("/echo")
        def echo(request):
            return str(request.body)

        server = HttpServer(app).start()
        try:
            import urllib.request

            request = urllib.request.Request(
                f"{server.url}/echo", data=b"hello", method="POST"
            )
            with urllib.request.urlopen(request, timeout=5) as reply:
                assert reply.read() == b"hello"
        finally:
            server.stop()

"""Unit tests for the worker-pool keep-alive server."""

import http.client
import socket

import pytest

from repro.web import Response, SafeWebApp
from repro.web.http import HttpServer


@pytest.fixture()
def app():
    application = SafeWebApp()

    @application.get("/ping")
    def ping(request):
        return "pong"

    @application.get("/large")
    def large(request):
        return "x" * 100_000

    @application.post("/echo-length")
    def echo_length(request):
        return str(len(request.raw_body))

    @application.post("/echo-bytes")
    def echo_bytes(request):
        return Response(request.raw_body, content_type="application/octet-stream")

    return application


@pytest.fixture()
def server(app):
    instance = HttpServer(app, workers=4, stream_threshold=64 * 1024).start()
    yield instance
    instance.stop()


def open_connection(server):
    host, port = server.address
    return http.client.HTTPConnection(host, port, timeout=5)


class TestKeepAlive:
    def test_many_requests_one_connection(self, server):
        connection = open_connection(server)
        for _ in range(5):
            connection.request("GET", "/ping")
            response = connection.getresponse()
            assert response.status == 200
            assert response.read() == b"pong"
            assert response.getheader("Connection") == "keep-alive"
        connection.close()

    def test_connection_close_honoured(self, server):
        connection = open_connection(server)
        connection.request("GET", "/ping", headers={"Connection": "close"})
        response = connection.getresponse()
        assert response.read() == b"pong"
        assert response.getheader("Connection") == "close"
        connection.close()

    def test_pipelined_requests_answered_in_order(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(
            b"GET /ping HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /ping HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        sock.close()
        assert data.count(b"pong") == 2
        assert data.count(b"HTTP/1.1 200") == 2


class TestHead:
    def test_head_returns_headers_only(self, server):
        connection = open_connection(server)
        connection.request("HEAD", "/ping")
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Length") == "4"
        assert response.read() == b""
        # The connection is still usable afterwards (no body desync).
        connection.request("GET", "/ping")
        assert connection.getresponse().read() == b"pong"
        connection.close()


class TestBodies:
    def test_binary_post_does_not_crash(self, server):
        payload = bytes(range(256)) * 4
        connection = open_connection(server)
        connection.request("POST", "/echo-length", body=payload)
        assert connection.getresponse().read() == str(len(payload)).encode()
        connection.close()

    def test_binary_response_roundtrip(self, server):
        payload = bytes(range(256))
        connection = open_connection(server)
        connection.request("POST", "/echo-bytes", body=payload)
        assert connection.getresponse().read() == payload
        connection.close()

    def test_large_response_streams_chunked(self, server):
        connection = open_connection(server)
        connection.request("GET", "/large")
        response = connection.getresponse()
        assert response.getheader("Transfer-Encoding") == "chunked"
        assert response.getheader("Content-Length") is None
        assert response.read() == b"x" * 100_000
        # keep-alive survives a chunked response
        connection.request("GET", "/ping")
        assert connection.getresponse().read() == b"pong"
        connection.close()


class TestProtocolEdges:
    def test_garbage_request_line_is_400(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(b"NONSENSE\r\n\r\n")
        data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]
        sock.close()

    def test_unsupported_version_is_400(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(b"GET /ping HTTP/0.9\r\n\r\n")
        data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]
        sock.close()

    def test_oversized_body_rejected_before_buffering(self, app):
        server = HttpServer(app, workers=2, max_body_size=1024).start()
        try:
            sock = socket.create_connection(server.address, timeout=5)
            sock.sendall(
                b"POST /echo-length HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 10485760\r\n\r\n"
            )
            data = sock.recv(65536)
            assert b"413" in data.split(b"\r\n", 1)[0]
            sock.close()
        finally:
            server.stop()

    def test_http10_closes_by_default(self, server):
        sock = socket.create_connection(server.address, timeout=5)
        sock.sendall(b"GET /ping HTTP/1.0\r\n\r\n")
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        assert b"pong" in data
        assert b"Connection: close" in data
        sock.close()

    def test_requests_served_counter(self, server):
        connection = open_connection(server)
        connection.request("GET", "/ping")
        connection.getresponse().read()
        connection.close()
        assert server.requests_served >= 1

    def test_stop_is_prompt_with_idle_keepalive_connection(self, app):
        server = HttpServer(app, workers=2).start()
        connection = open_connection(server)
        connection.request("GET", "/ping")
        connection.getresponse().read()
        # Leave the connection open and idle; stop must not hang.
        server.stop()
        connection.close()

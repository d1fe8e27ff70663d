"""Integration: the portal over real HTTP sockets."""

import base64
import http.client
import json
import socket
import statistics
import time

import pytest

from repro.mdt import MdtDeployment, WorkloadConfig, generate_workload
from repro.web.http import HttpServer
from repro.web.response import Response

pytestmark = pytest.mark.usefixtures("resource_ledger")


@pytest.fixture(scope="module")
def served_deployment():
    deployment = MdtDeployment(
        generate_workload(
            WorkloadConfig(num_regions=2, mdts_per_region=2, patients_per_mdt=4, seed=31)
        )
    )
    deployment.run_pipeline()
    server = HttpServer(deployment.portal).start()
    yield deployment, server
    server.stop()


def http_get(server, path, user=None, password=None):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    headers = {}
    if user is not None:
        token = base64.b64encode(f"{user}:{password}".encode()).decode()
        headers["Authorization"] = f"Basic {token}"
    connection.request("GET", path, headers=headers)
    response = connection.getresponse()
    body = response.read().decode()
    connection.close()
    return response.status, dict(response.getheaders()), body


class TestPortalOverSockets:
    def test_health(self, served_deployment):
        _deployment, server = served_deployment
        status, _headers, body = http_get(server, "/health")
        assert status == 200
        assert body == "ok"

    def test_unauthenticated_401_with_challenge(self, served_deployment):
        _deployment, server = served_deployment
        status, headers, _body = http_get(server, "/records/1")
        assert status == 401
        assert "WWW-Authenticate" in headers

    def test_records_json(self, served_deployment):
        deployment, server = served_deployment
        status, headers, body = http_get(
            server, "/records/1", "mdt1", deployment.password_of("mdt1")
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        records = json.loads(body)
        assert records and all(record["mid"] == "1" for record in records)

    def test_label_check_fires_over_sockets(self, served_deployment):
        deployment, server = served_deployment
        # Cross-region metrics request: app check blocks (403).
        status, _headers, body = http_get(
            server, "/metrics/3", "mdt1", deployment.password_of("mdt1")
        )
        assert status == 403

    def test_front_page_html(self, served_deployment):
        deployment, server = served_deployment
        status, headers, body = http_get(
            server, "/", "mdt2", deployment.password_of("mdt2")
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert "MDT 2" in body

    def test_content_length_accurate(self, served_deployment):
        deployment, server = served_deployment
        status, headers, body = http_get(
            server, "/", "mdt1", deployment.password_of("mdt1")
        )
        assert status == 200
        assert int(headers["Content-Length"]) == len(body.encode())

    def test_parallel_clients(self, served_deployment):
        import threading

        deployment, server = served_deployment
        outcomes = []
        lock = threading.Lock()

        def fetch(user):
            status, _headers, _body = http_get(
                server, f"/records/{user[3:]}", user, deployment.password_of(user)
            )
            with lock:
                outcomes.append(status)

        threads = [
            threading.Thread(target=fetch, args=(f"mdt{n}",))
            for _round in range(2)
            for n in (1, 2, 3, 4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count(200) == len(outcomes)


class TestLargeResponses:
    """A 1 MiB page leaves whole, with ``Content-Length``, in one write. Its
    last segment is short, so with Nagle on it would wait for the client's
    delayed ACK (≈ 40 ms on Linux) behind the ones before it."""

    PAGE = b"x" * (1024 * 1024)

    @pytest.fixture()
    def server(self):
        server = HttpServer(lambda request: Response(body=self.PAGE), workers=1).start()
        yield server
        server.stop()

    def test_large_keep_alive_page_is_not_held_by_nagle(self, server):
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        elapsed = []
        for _ in range(20):
            started = time.perf_counter()
            connection.request("GET", "/")
            response = connection.getresponse()
            assert response.getheader("Transfer-Encoding") is None
            assert response.getheader("Content-Length") == str(len(self.PAGE))
            assert response.read() == self.PAGE
            elapsed.append(time.perf_counter() - started)
        with server._connections_lock:
            (accepted,) = server._connections
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        connection.close()
        assert statistics.median(elapsed) < 0.015

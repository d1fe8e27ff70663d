"""Integration: TLS at the transport layer (paper §4.2 and §5.1).

The paper's broker is "extended with SSL support at the transport layer"
and the frontend serves HTTP Basic over TLS. These tests wrap the STOMP
server and the HTTP server in TLS with a self-signed certificate
generated on the fly (the ``tls_contexts`` fixture in ``conftest.py``;
requires the ``cryptography`` package, skipped when unavailable).
"""

import time

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.core.policy import parse_policy
from repro.events import Broker
from repro.events.stomp import StompClient, StompServer
from repro.events.stomp import client as client_module

PATIENT = conf_label("ecric.org.uk", "patient", "1")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit secure_client {
        clearance label:conf:ecric.org.uk/patient
    }
    """
)


class TestStompOverTls:
    def test_labelled_round_trip(self, tls_contexts):
        server_context, client_context = tls_contexts
        broker = Broker()
        server = StompServer(broker, policy=POLICY, tls_context=server_context).start()
        try:
            host, port = server.address
            subscriber = StompClient(
                host, port, login="secure_client", tls_context=client_context
            ).connect()
            publisher = StompClient(
                host, port, login="secure_client", tls_context=client_context
            ).connect()
            received = []
            subscriber.subscribe("/secure", received.append)
            publisher.send(
                "/secure", {"k": "v"}, payload="over tls", labels=[PATIENT], receipt=True
            )
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not received:
                time.sleep(0.01)
            assert received
            assert received[0].payload == "over tls"
            assert received[0].labels == LabelSet([PATIENT])
            subscriber.disconnect()
            publisher.disconnect()
        finally:
            server.stop()

    def test_plaintext_client_rejected_by_tls_server(self, tls_contexts, monkeypatch):
        server_context, _client_context = tls_contexts
        monkeypatch.setattr(client_module, "EXCHANGE_TIMEOUT", 1.0)
        broker = Broker()
        server = StompServer(broker, tls_context=server_context).start()
        try:
            host, port = server.address
            from repro.exceptions import SafeWebError

            with pytest.raises((SafeWebError, OSError)):
                StompClient(host, port).connect()
        finally:
            server.stop()


class TestHttpsPortal:
    def test_portal_over_https(self, tls_contexts):
        server_context, client_context = tls_contexts
        from repro.mdt import MdtDeployment, WorkloadConfig, generate_workload
        from repro.web.http import HttpServer

        deployment = MdtDeployment(
            generate_workload(
                WorkloadConfig(num_regions=1, mdts_per_region=1, patients_per_mdt=3, seed=41)
            )
        )
        deployment.run_pipeline()
        server = HttpServer(deployment.portal, tls_context=server_context).start()
        try:
            import base64
            import http.client

            host, port = server.address
            connection = http.client.HTTPSConnection(host, port, context=client_context)
            token = base64.b64encode(
                f"mdt1:{deployment.password_of('mdt1')}".encode()
            ).decode()
            connection.request("GET", "/records/1", headers={"Authorization": f"Basic {token}"})
            response = connection.getresponse()
            assert response.status == 200
            body = response.read().decode()
            assert "patient_name" in body
            connection.close()
        finally:
            server.stop()


    def test_stop_is_prompt_with_idle_tls_connection(self, tls_contexts):
        import http.client

        from repro.web import SafeWebApp
        from repro.web.http import HttpServer

        server_context, client_context = tls_contexts
        app = SafeWebApp()
        app.get("/ping")(lambda request: "pong")
        server = HttpServer(app, workers=2, tls_context=server_context).start()
        connection = http.client.HTTPSConnection(*server.address, context=client_context)
        connection.request("GET", "/ping")
        assert connection.getresponse().read() == b"pong"
        # The worker reads through the TLS socket, which wrapping detached
        # from the accepted one: stop must reach it there.
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 2.5
        connection.close()


class TestSessionCookieSecureFlag:
    """``POST /login`` marks the session cookie ``Secure`` exactly when
    the listener that served it is TLS — the server tells the session
    layer through ``request.env``, so both directions are pinned over
    real sockets."""

    @staticmethod
    def _login_cookie(connection, deployment):
        from urllib.parse import urlencode

        connection.request(
            "POST",
            "/login",
            body=urlencode({"username": "mdt1", "password": deployment.password_of("mdt1")}),
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        response = connection.getresponse()
        response.read()
        assert response.status == 201
        return response.getheader("Set-Cookie")

    @pytest.fixture()
    def deployment(self):
        from repro.mdt import MdtDeployment, WorkloadConfig, generate_workload

        deployment = MdtDeployment(
            generate_workload(
                WorkloadConfig(num_regions=1, mdts_per_region=1, patients_per_mdt=2, seed=43)
            )
        )
        yield deployment
        deployment.close()

    def test_tls_listener_sets_secure(self, tls_contexts, deployment):
        import http.client

        from repro.web.http import HttpServer

        server_context, client_context = tls_contexts
        server = HttpServer(deployment.portal, tls_context=server_context).start()
        try:
            connection = http.client.HTTPSConnection(*server.address, context=client_context)
            cookie = self._login_cookie(connection, deployment)
            connection.close()
        finally:
            server.stop()
        attributes = [part.strip() for part in cookie.split(";")]
        assert "Secure" in attributes
        assert {"HttpOnly", "SameSite=Strict", "Path=/"} <= set(attributes)

    def test_plaintext_listener_leaves_secure_off(self, deployment):
        import http.client

        from repro.web.http import HttpServer

        server = HttpServer(deployment.portal).start()
        try:
            connection = http.client.HTTPConnection(*server.address)
            cookie = self._login_cookie(connection, deployment)
            connection.close()
        finally:
            server.stop()
        # A Secure cookie would never be sent back over this listener:
        # the session would silently stop working.
        attributes = [part.strip() for part in cookie.split(";")]
        assert "Secure" not in attributes
        assert {"HttpOnly", "SameSite=Strict", "Path=/"} <= set(attributes)

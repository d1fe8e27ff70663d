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
        broker = Broker(threaded=True)
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
            broker.stop()

    def test_plaintext_client_rejected_by_tls_server(self, tls_contexts):
        server_context, _client_context = tls_contexts
        broker = Broker(threaded=True)
        server = StompServer(broker, tls_context=server_context).start()
        try:
            host, port = server.address
            from repro.exceptions import SafeWebError

            with pytest.raises((SafeWebError, OSError)):
                StompClient(host, port, timeout=1.0).connect()
        finally:
            server.stop()
            broker.stop()


class TestHttpsPortal:
    def test_portal_over_https(self, tls_contexts):
        server_context, client_context = tls_contexts
        from repro.mdt import MdtDeployment, WorkloadConfig
        from repro.web.http import HttpServer

        deployment = MdtDeployment(
            WorkloadConfig(num_regions=1, mdts_per_region=1, patients_per_mdt=3, seed=41)
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

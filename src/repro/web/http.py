"""HTTP plumbing: a worker-pool keep-alive server and an in-process
test client.

:class:`HttpServer` is the production path: a fixed pool of worker
threads each running an accept → serve loop over persistent HTTP/1.1
connections. One connection occupies one worker for its lifetime, so the
pool size bounds concurrency (the kernel backlog absorbs bursts) and no
thread is ever spawned per connection. Requests are read from a buffered
socket file, which makes pipelined requests work for free; responses
carry correct ``Content-Length``/``Connection`` headers, ``HEAD`` is
served headers-only off the ``GET`` route, request bodies stay bytes
until a handler asks for text, and every response leaves whole, in one
write, since its payload is already in memory. TLS wraps each accepted
socket (handshake on the worker, not the acceptor).

:class:`TestClient` drives an app without sockets. Tests and the page-
generation benchmark use it so measurements capture *page generation*
(what the paper reports) rather than socket noise.
"""

from __future__ import annotations

import socket
import ssl
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.web.auth import encode_basic
from repro.web.request import TLS_ENV_KEY, Request
from repro.web.response import Response

_MAX_LINE = 65536
#: Largest request body read; a longer Content-Length is refused with 413.
_MAX_BODY_SIZE = 10 * 1024 * 1024
_MAX_HEADERS = 128
#: Seconds an idle keep-alive connection may hold its worker.
_KEEP_ALIVE_TIMEOUT = 5.0
#: Requests served on one connection before the server closes it.
_MAX_REQUESTS_PER_CONNECTION = 1000
_LISTEN_BACKLOG = 128
_SUPPORTED_VERSIONS = ("HTTP/1.1", "HTTP/1.0")


class _BadRequest(Exception):
    """Malformed input on the wire; the connection is answered and closed."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


_ERROR_REASONS = {400: "Bad Request", 413: "Payload Too Large"}


class HttpServer:
    """Serve a SafeWeb app from a bounded pool of keep-alive workers."""

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 0,
        tls_context: Optional[ssl.SSLContext] = None,
        workers: int = 16,
    ):
        self.app = app
        self.workers = workers
        self._tls_context = tls_context
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(_LISTEN_BACKLOG)
        self.server_address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._shutdown = threading.Event()
        self._threads: list = []
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        #: Requests served across all connections (tests/bench read this).
        self.requests_served = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address

    @property
    def url(self) -> str:
        host, port = self.server_address
        return f"http://{host}:{port}"

    def start(self) -> "HttpServer":
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"safeweb-http-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._shutdown.set()
        try:
            # Closing an fd does not interrupt accept(); shutdown wakes
            # every worker blocked on the listener.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # already stopped
            pass
        self._listener.close()
        with self._connections_lock:
            open_connections = list(self._connections)
        for connection in open_connections:
            # Shut down, not close: a worker blocked reading holds the
            # socket through its reader, so close() would not wake it, and
            # the worker closes what it owns. The plain socket call leaves
            # a TLS socket's session to the worker.
            try:
                socket.socket.shutdown(connection, socket.SHUT_RDWR)
            except OSError:  # already closed by its worker
                pass
        for thread in self._threads:
            thread.join(5)
        self._threads = []

    # -- the worker loop ---------------------------------------------------

    def _worker(self) -> None:
        while not self._shutdown.is_set():
            try:
                connection, address = self._listener.accept()
            except OSError:  # listener closed: shutting down
                return
            try:
                self._serve_connection(connection, address)
            except Exception:  # noqa: BLE001 - one bad connection must not kill a worker
                pass

    def _swap_tracked(self, old, new) -> None:
        """Replace *old* with *new* among the sockets ``stop`` shuts down."""
        with self._connections_lock:
            self._connections.discard(old)
            if new is not None:
                self._connections.add(new)

    def _serve_connection(self, connection: socket.socket, address) -> None:
        self._swap_tracked(None, connection)
        reader = None
        try:
            # Timeout first so a stalled TLS handshake cannot pin the worker.
            connection.settimeout(_KEEP_ALIVE_TIMEOUT)
            # Pipelined keep-alive responses follow unacknowledged ones, and
            # a large page ends in a short segment; with Nagle on, either
            # waits out the client's delayed ACK.
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls_context is not None:
                # Wrapping detaches the plain socket: track the TLS one.
                wrapped = self._tls_context.wrap_socket(connection, server_side=True)
                self._swap_tracked(connection, wrapped)
                connection = wrapped
            reader = connection.makefile("rb")
            served = 0
            while not self._shutdown.is_set():
                try:
                    parsed = self._read_request(reader)
                except _BadRequest as bad:
                    self._write_simple(connection, bad.status, str(bad))
                    return
                except (socket.timeout, OSError, ValueError):
                    return  # idle keep-alive expiry, peer reset, or EOF mid-request
                if parsed is None:
                    return  # clean EOF between requests
                method, target, version, headers, body = parsed
                served += 1
                keep_alive = self._keep_alive(version, headers)
                if served >= _MAX_REQUESTS_PER_CONNECTION:
                    keep_alive = False
                request = Request(
                    method=method,
                    path=target,
                    headers=headers,
                    body=body,
                    remote_addr=address[0] if address else "127.0.0.1",
                )
                if self._tls_context is not None:
                    request.env[TLS_ENV_KEY] = True
                response = self.app(request)
                status, response_headers, payload = response.finalize()
                self.requests_served += 1
                # Whole, in one write: the payload is already in memory.
                lines = [f"HTTP/1.1 {status} {response.reason}"]
                for name, value in response_headers.items():
                    lines.append(f"{name}: {value}")
                lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
                head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                try:
                    connection.sendall(head if method.upper() == "HEAD" else head + payload)
                except OSError:
                    return
                if not keep_alive:
                    return
        finally:
            self._swap_tracked(connection, None)
            for resource in (reader, connection):
                if resource is not None:
                    try:
                        resource.close()
                    except OSError:
                        pass

    # -- request parsing ---------------------------------------------------

    def _read_request(self, reader):
        """One request from the buffered reader, or None on clean EOF."""
        line = reader.readline(_MAX_LINE + 1)
        if not line:
            return None
        if len(line) > _MAX_LINE:
            raise _BadRequest("request line too long")
        if line in (b"\r\n", b"\n"):
            # Tolerate a stray CRLF between pipelined requests (RFC 9112 §2.2).
            line = reader.readline(_MAX_LINE + 1)
            if not line:
                return None
        try:
            text = line.decode("latin-1").rstrip("\r\n")
            method, target, version = text.split(" ", 2)
        except ValueError as error:
            raise _BadRequest("malformed request line") from error
        if version not in _SUPPORTED_VERSIONS:
            raise _BadRequest(f"unsupported version {version!r}")
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = reader.readline(_MAX_LINE + 1)
            if not line or len(line) > _MAX_LINE:
                raise _BadRequest("truncated or oversized header block")
            if line in (b"\r\n", b"\n"):
                break
            name, separator, value = line.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _BadRequest("chunked request bodies not supported")
        length_text = headers.get("content-length", "") or "0"
        try:
            length = int(length_text)
        except ValueError as error:
            raise _BadRequest("bad Content-Length") from error
        if length < 0:
            raise _BadRequest("negative Content-Length")
        if length > _MAX_BODY_SIZE:
            # Refuse before buffering: an unauthenticated client must not
            # be able to hold _MAX_BODY_SIZE bytes per worker.
            raise _BadRequest("request body too large", status=413)
        body = reader.read(length) if length else b""
        if length and len(body) != length:
            raise ValueError("peer closed mid-body")
        return method, target, version, headers, body

    @staticmethod
    def _keep_alive(version: str, headers: Dict[str, str]) -> bool:
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            return False
        if version == "HTTP/1.0":
            return "keep-alive" in connection
        return True

    # -- response writing --------------------------------------------------

    @staticmethod
    def _write_simple(connection: socket.socket, status: int, text: str) -> None:
        payload = text.encode("utf-8")
        reason = _ERROR_REASONS.get(status, "Bad Request")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: text/plain\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            connection.sendall(head + payload)
        except OSError:
            pass


@dataclass
class ClientResult:
    """What :class:`TestClient` returns: wire view + pre-wire response."""

    status: int
    headers: Dict[str, str]
    text: str
    response: Response = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self):
        import json

        return json.loads(self.text)


class TestClient:
    """Call an app in-process, Rack::Test style."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, app):
        self.app = app
        #: The most recent Request object (benchmarks read its timings).
        self.last_request: Optional[Request] = None

    def request(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: str = "",
        auth: Optional[Tuple[str, str]] = None,
    ) -> ClientResult:
        headers = dict(headers or {})
        if auth is not None:
            headers["Authorization"] = encode_basic(*auth)
        request = Request(method=method, path=path, headers=headers, body=body)
        self.last_request = request
        response = self.app(request)
        status, finalized_headers, payload = response.finalize()
        return ClientResult(
            status=status,
            headers=finalized_headers,
            text=payload.decode("utf-8"),
            response=response,
        )

    def get(self, path: str, **kwargs) -> ClientResult:
        return self.request("GET", path, **kwargs)

    def post(self, path: str, **kwargs) -> ClientResult:
        return self.request("POST", path, **kwargs)

    def put(self, path: str, **kwargs) -> ClientResult:
        return self.request("PUT", path, **kwargs)

    def delete(self, path: str, **kwargs) -> ClientResult:
        return self.request("DELETE", path, **kwargs)

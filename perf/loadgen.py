"""Closed-loop HTTP load generator: one keep-alive connection, raw sockets.

The client is deliberately small: requests are encoded once, a response
is a status line, a ``Content-Length`` body and (sometimes) a
``Connection: close`` notice. One connection, because every caller of
the portal waits for its page before asking for the next one, and
because a second client thread in the server's interpreter only adds
GIL hand-offs (see README, "Sizing notes").
"""

from __future__ import annotations

import base64
import random
import socket
import urllib.parse
from typing import Dict, List, NamedTuple, Optional, Tuple


class Reply(NamedTuple):
    status: int
    head: bytes  # status line + headers, undecoded
    body: bytes


class HttpClient:
    """One persistent HTTP/1.1 connection with reconnect-on-close."""

    def __init__(self, address: Tuple[str, int], timeout: float = 30.0):
        self._address = address
        self._timeout = timeout
        self._socket: Optional[socket.socket] = None
        self._buffer = b""
        #: Times the server asked to close and the client reconnected
        #: (the server recycles a connection after a fixed request count).
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        self._socket = socket.create_connection(self._address, timeout=self._timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def request(self, raw: bytes) -> Reply:
        """Send one pre-encoded request and read exactly one response."""
        if self._socket is None:
            self._connect()
        self._socket.sendall(raw)
        buffer = self._buffer
        recv = self._socket.recv
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buffer += chunk
        head = buffer[:end]
        lowered = head.lower()
        if b"transfer-encoding: chunked" in lowered:
            raise ValueError("chunked responses are outside this benchmark's pages")
        length = 0
        at = lowered.find(b"content-length:")
        if at >= 0:
            line_end = lowered.find(b"\r\n", at)
            length = int(lowered[at + 15 : line_end if line_end >= 0 else None])
        body_start = end + 4
        while len(buffer) < body_start + length:
            chunk = recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        body = buffer[body_start : body_start + length]
        self._buffer = buffer[body_start + length :]
        status = int(head[9:12])
        if b"connection: close" in lowered:
            # Honoured, never a failure: the server recycles connections.
            self.close()
            self.reconnects += 1
        return Reply(status, head, body)


def encode_request(
    method: str,
    path: str,
    headers: Optional[Dict[str, str]] = None,
    form: Optional[Dict[str, str]] = None,
) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: portal"]
    body = b""
    if form is not None:
        body = urllib.parse.urlencode(form).encode("ascii")
        lines.append("Content-Type: application/x-www-form-urlencoded")
        lines.append(f"Content-Length: {len(body)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def basic_header(username: str, password: str) -> str:
    token = base64.b64encode(f"{username}:{password}".encode()).decode("ascii")
    return f"Basic {token}"


class Planned(NamedTuple):
    """One scripted request: what to send and what must come back."""

    kind: str  # front | records | metrics | compare | region | foreign | anon | feedback | health
    user: Optional[str]
    mdt_id: Optional[str]  # the MDT (or region, for kind == "region") the page is about
    method: str
    path: str
    expect: int


#: Requests of each kind per 100 (README, "web_generate").
MIX = (
    ("front", 30),
    ("records", 25),
    ("metrics", 15),
    ("compare", 10),
    ("region", 10),
    ("foreign", 4),
    ("anon", 2),
    ("feedback", 2),
    ("health", 2),
)


def plan_cycle(seed: int, reference: dict) -> List[Planned]:
    """The fixed 100-request sequence every web cycle replays.

    *reference* is :func:`adapter.registry_reference` output; only its
    directory part (MDT ids, regions, hospitals) is used here.
    """
    rng = random.Random(seed * 7919 + 17)
    mdts = reference["mdts"]
    mdt_ids = sorted(mdts, key=int)
    regions = sorted({info["region"] for info in mdts.values()})
    plan: List[Planned] = []
    for kind, count in MIX:
        for _ in range(count):
            own = rng.choice(mdt_ids)
            user = f"mdt{own}"
            info = mdts[own]
            if kind == "front":
                plan.append(Planned(kind, user, own, "GET", "/", 200))
            elif kind == "records":
                plan.append(Planned(kind, user, own, "GET", f"/records/{own}", 200))
            elif kind == "metrics":
                peers = [m for m in mdt_ids if mdts[m]["region"] == info["region"]]
                target = rng.choice(peers)
                plan.append(Planned(kind, user, target, "GET", f"/metrics/{target}", 200))
            elif kind == "compare":
                plan.append(Planned(kind, user, own, "GET", f"/compare/{own}", 200))
            elif kind == "region":
                region = rng.choice(regions)
                plan.append(Planned(kind, user, region, "GET", f"/region/{region}", 200))
            elif kind == "foreign":
                # Another hospital's MDT: the Listing 3 ACL must refuse it.
                others = [m for m in mdt_ids if mdts[m]["hospital"] != info["hospital"]]
                target = rng.choice(others)
                plan.append(Planned(kind, user, target, "GET", f"/records/{target}", 403))
            elif kind == "anon":
                plan.append(Planned(kind, None, None, "GET", "/", 401))
            elif kind == "feedback":
                plan.append(Planned(kind, user, own, "POST", "/feedback", 202))
            else:
                plan.append(Planned(kind, None, None, "GET", "/health", 200))
    rng.shuffle(plan)
    return plan

"""The STOMP server: the broker's wire interface (paper §4.2).

Bridges TCP clients to an in-process :class:`~repro.events.broker.Broker`:

* ``CONNECT`` accepts a login that names a policy unit (any login when
  the server has no policy) and answers ``CONNECTED``; web users are
  not broker principals, so any other login is refused;
* ``SUBSCRIBE`` registers a broker subscription whose clearance is the
  *authenticated principal's* — clients cannot claim clearance in the
  frame, which is what makes the label filtering trustworthy;
* ``SEND`` publishes an event: non-reserved headers become event
  attributes, the body becomes the payload and ``x-safeweb-labels``
  (comma-separated URIs) become confidentiality/integrity labels;
* matching events come back as ``MESSAGE`` frames with the label header
  restored, so labels survive the wire round trip.

TLS: pass an ``ssl.SSLContext`` to wrap accepted connections — the
paper's "extended with SSL support at the transport layer".
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import ssl
import threading
from typing import Dict, Optional, Tuple

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import LabelSet
from repro.core.policy import Policy
from repro.core.privileges import PrivilegeSet
from repro.events.broker import Broker
from repro.events.event import Event
from repro.events.stomp.frames import Frame
from repro.events.stomp.link import FrameLink
from repro.events.supervision import SupervisionPolicy, Supervisor
from repro.exceptions import SelectorSyntaxError, StompProtocolError

#: Headers that carry protocol state rather than event attributes.
RESERVED_HEADERS = frozenset(
    {
        "destination",
        "id",
        "subscription",
        "message-id",
        "content-length",
        "content-type",
        "receipt",
        "receipt-id",
        "login",
        "passcode",
        "selector",
        "session",
        "version",
        "ack",
        "transaction",
        "x-safeweb-labels",
        "x-safeweb-require-integrity",
    }
)

LABEL_HEADER = "x-safeweb-labels"
REQUIRE_INTEGRITY_HEADER = "x-safeweb-require-integrity"


def event_to_message(event: Event, subscription_id: str) -> Frame:
    # Attributes never stand in for protocol headers: an event published
    # inside the broker could otherwise forge its labels, redirect or
    # rename its delivery, or break the subscriber's framing.
    headers = {
        name: value for name, value in event.attributes.items() if name not in RESERVED_HEADERS
    }
    headers["destination"] = event.topic
    headers["subscription"] = subscription_id
    headers["message-id"] = str(event.event_id)
    if event.labels:
        headers[LABEL_HEADER] = ",".join(event.labels.to_uris())
    return Frame("MESSAGE", headers, event.payload or "")


def frame_to_event(frame: Frame) -> Event:
    attributes = {
        name: value for name, value in frame.headers.items() if name not in RESERVED_HEADERS
    }
    label_header = frame.header(LABEL_HEADER, "")
    labels = LabelSet.from_uris(uri for uri in label_header.split(",") if uri)
    return Event(
        topic=frame.require("destination"),
        attributes=attributes,
        payload=frame.body or None,
        labels=labels,
    )


class _Connection(socketserver.BaseRequestHandler):
    """One client session; its thread runs the connection's
    :class:`~repro.events.stomp.link.FrameLink` and so does all of its
    socket I/O. It also publishes the connection's SENDs, and the broker
    delivers them on it before their RECEIPTs are queued: other
    connections' threads deliver MESSAGE frames here by queueing on the
    link, which wakes this thread to write at once.
    """

    server: "StompServer"

    def setup(self) -> None:
        super().setup()
        self.principal: Optional[str] = None
        self.clearance = PrivilegeSet.empty()
        #: client id -> SUBSCRIBE parameters + broker subscription id;
        #: _cleanup turns the client-ack ones into orphan tombstones.
        self.subscriptions: Dict[str, dict] = {}
        self.closed = False
        #: ``ack: client`` state — message-id -> (client sub id, event),
        #: insertion-ordered so a dying connection dead-letters in-flight
        #: events oldest-first. Registered by the publishing connections'
        #: threads, drained by this connection's handler thread.
        self.unacked: Dict[str, Tuple[str, Event]] = {}
        self._unacked_lock = threading.Lock()
        self._delivery_ids = itertools.count(1)

    def handle(self) -> None:
        sock = self.request
        # As on the client: a small frame must not wait for a delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            if self.server.tls_context is not None:
                sock = self.server.tls_context.wrap_socket(sock, server_side=True)
                self.request = sock
        except (OSError, ssl.SSLError):
            return  # handshake failed (e.g. plaintext client)
        self.link = FrameLink(sock, self._dispatch_frames, write_timeout=5.0)
        try:
            self.link.run()
        finally:
            self._cleanup()

    # -- frame dispatch --------------------------------------------------------

    def _dispatch_frames(self, frames) -> None:
        """Dispatch a parsed batch, publishing runs of SEND frames together.

        A producer that writes several SEND frames per TCP segment gets
        them published through :meth:`Broker.publish_many` in one call,
        while every other command keeps its per-frame handling. Error and
        receipt semantics stay per frame: the broker delivers on this
        thread, so each RECEIPT is queued after its event was delivered,
        registered in flight or audited as denied.
        """
        pending_sends: list = []
        for frame in frames:
            if frame.command == "SEND":
                pending_sends.append(frame)
                continue
            self._flush_sends(pending_sends)
            self._dispatch(frame)
        self._flush_sends(pending_sends)

    def _flush_sends(self, frames: list) -> None:
        if not frames:
            return
        events = []
        publishable = []
        try:
            for frame in frames:
                try:
                    principal = self._require_connected()
                    events.append(frame_to_event(frame))
                    publishable.append(frame)
                except (StompProtocolError, SelectorSyntaxError) as error:
                    self._send(Frame("ERROR", {"message": str(error)}))
                    self._maybe_receipt(frame)
        finally:
            # Publish whatever converted cleanly even if a later frame
            # raised something unexpected (e.g. a malformed label URI) —
            # the per-frame dispatch this replaces had already published
            # the earlier events by that point.
            if events:
                if len(events) == 1:
                    self.server.broker.publish(events[0], publisher=principal)
                else:
                    self.server.broker.publish_many(events, publisher=principal)
                for frame in publishable:
                    self._maybe_receipt(frame)
            frames.clear()

    def _dispatch(self, frame: Frame) -> None:
        handler = {
            "CONNECT": self._on_connect,
            "STOMP": self._on_connect,
            "SUBSCRIBE": self._on_subscribe,
            "UNSUBSCRIBE": self._on_unsubscribe,
            "ACK": self._on_ack,
            "NACK": self._on_nack,
            "DISCONNECT": self._hang_up,
        }.get(frame.command)
        if handler is None:
            self._send(Frame("ERROR", {"message": f"unsupported command {frame.command}"}))
            return
        try:
            handler(frame)
        except (StompProtocolError, SelectorSyntaxError) as error:
            self._send(Frame("ERROR", {"message": str(error)}))
        self._maybe_receipt(frame)

    def _on_connect(self, frame: Frame) -> None:
        login = frame.header("login", "anonymous")
        clearance = self.server.authenticate(login)
        if clearance is None:
            self._send(Frame("ERROR", {"message": "authentication failed"}))
            self._hang_up()
            return
        self.principal = login
        self.clearance = clearance
        self._send(
            Frame(
                "CONNECTED",
                {"version": "1.1", "session": f"session-{id(self) & 0xFFFF:04x}"},
            )
        )
        self.server.audit.allowed("stomp", "connect", login)

    def _require_connected(self) -> str:
        if self.principal is None:
            raise StompProtocolError("not connected; send CONNECT first")
        return self.principal

    def _on_subscribe(self, frame: Frame) -> None:
        principal = self._require_connected()
        destination = frame.require("destination")
        client_id = frame.require("id")
        if client_id in self.subscriptions:
            raise StompProtocolError(f"subscription id {client_id!r} already in use")
        selector = frame.header("selector")
        ack_mode = frame.header("ack", "auto")
        if ack_mode not in ("auto", "client"):
            raise StompProtocolError(f"unsupported ack mode {ack_mode!r}")
        integrity_header = frame.header(REQUIRE_INTEGRITY_HEADER, "")
        require_integrity = LabelSet.from_uris(
            uri for uri in integrity_header.split(",") if uri
        )

        def deliver(event: Event) -> None:
            message = event_to_message(event, client_id)
            if ack_mode == "client" and not self._register(message, event):
                return
            self._send(message)

        subscription = self.server.broker.subscribe(
            destination,
            deliver,
            principal=principal,
            clearance=self.clearance,
            selector=selector,
            require_integrity=require_integrity,
        )
        self.subscriptions[client_id] = {
            "broker_id": subscription.subscription_id,
            "destination": destination,
            "selector": selector,
            "require_integrity": require_integrity,
            "ack": ack_mode,
        }
        if ack_mode == "client":
            # A returning consumer takes over from its tombstone — the
            # new subscription is live first, so the handover can
            # duplicate deliveries but never drop them.
            self.server.adopt_orphan(principal, destination)

    def _register(self, message: Frame, event: Event) -> bool:
        """Record an ``ack: client`` delivery as in flight; False if closed.

        At-least-once: the event is registered *before* its MESSAGE frame
        is queued and stays so until the client ACKs it; a connection
        that dies first dead-letters what is still in the map (see
        _cleanup). The frame reaches a consumer that acknowledges it or
        lands on the unit's DLQ — it cannot vanish with the socket.
        """
        delivery_id = f"{event.event_id}.{next(self._delivery_ids)}"
        message.headers["message-id"] = delivery_id
        # Check and registration are one atomic step against _cleanup,
        # which flips ``closed`` and drains the map under this lock: the
        # entry is registered before the sweep (which dead-letters it) or
        # the connection is seen closed here — registered on a dead
        # connection it would never be sent, acked or swept.
        with self._unacked_lock:
            registered = not self.closed
            if registered:
                self.unacked[delivery_id] = (message.headers["subscription"], event)
                self.server.count_in_flight(1)
        if not registered:
            self._dead_letter(event, "closed", "delivered to a closed connection")
        return registered

    def _on_ack(self, frame: Frame) -> None:
        if self._settle(frame, "ack") is not None:
            self.server.count_in_flight(-1)

    def _on_nack(self, frame: Frame) -> None:
        """A consumer refusing an event dead-letters it immediately."""
        event = self._settle(frame, "nack")
        if event is not None:
            self._dead_letter(event, frame.require("message-id"), "consumer NACK")
            self.server.count_in_flight(-1)

    def _settle(self, frame: Frame, operation: str) -> Optional[Event]:
        """Take an ACKed/NACKed delivery's event off the in-flight map."""
        principal = self._require_connected()
        message_id = frame.require("message-id")
        with self._unacked_lock:
            entry = self.unacked.pop(message_id, None)
        if entry is None:
            # Expected under at-least-once: a consumer may settle after
            # its old connection's entries were swept to the DLQ (a bridge
            # that reconnected mid-delivery). An ERROR frame would fail
            # the client's next RECEIPT wait, so record it and move on.
            self.server.audit.denied(
                "stomp",
                operation,
                principal,
                detail=f"stale or duplicate {operation.upper()} for {message_id!r} ignored",
            )
            return None
        return entry[1]

    def _on_unsubscribe(self, frame: Frame) -> None:
        self._require_connected()
        client_id = frame.require("id")
        # A deliberate unsubscribe leaves no tombstone behind.
        spec = self.subscriptions.pop(client_id, None)
        if spec is None:
            raise StompProtocolError(f"unknown subscription id {client_id!r}")
        self.server.broker.unsubscribe(spec["broker_id"])

    def _maybe_receipt(self, frame: Frame) -> None:
        receipt = frame.header("receipt")
        if receipt is not None:
            self._send(Frame("RECEIPT", {"receipt-id": receipt}))

    # -- plumbing ------------------------------------------------------------------

    def _send(self, frame: Frame) -> None:
        """Queue a frame; the handler thread performs the socket write."""
        self.link.send(frame)

    def _dead_letter(self, event: Event, message_id: str, reason: str) -> None:
        self.server.dead_letter_unacked(
            self.principal or "anonymous", event, message_id, reason=reason
        )

    def _hang_up(self, _frame: Optional[Frame] = None) -> None:
        """End the session once the replies queued so far are written."""
        self.closed = True
        self.link.stop()

    def _cleanup(self) -> None:
        # Under the lock so no delivery can observe ``closed`` False and
        # then register after the sweep below has drained the map.
        with self._unacked_lock:
            self.closed = True
        # Tombstones go up BEFORE the real subscriptions come down: an
        # event published in the gap lands on the unit's DLQ instead of
        # fanning out to nobody. Until the unsubscribe below both match —
        # a duplicate, which at-least-once permits; never a drop.
        for spec in self.subscriptions.values():
            if spec["ack"] == "client":
                self.server.orphan_subscription(
                    self.principal or "anonymous",
                    self.clearance,
                    spec["destination"],
                    selector=spec["selector"],
                    require_integrity=spec["require_integrity"],
                )
        for spec in self.subscriptions.values():
            self.server.broker.unsubscribe(spec["broker_id"])
        self.subscriptions.clear()
        with self._unacked_lock:
            in_flight = list(self.unacked.items())
            self.unacked.clear()
        for message_id, (_client_id, event) in in_flight:
            self._dead_letter(event, message_id, "connection lost with message in flight")
        self.server.count_in_flight(-len(in_flight))


class StompServer(socketserver.ThreadingTCPServer):
    """A threaded STOMP server over an IFC broker.

    One thread per connection; each publishes its connection's SENDs
    and the broker delivers them on that thread, into every matching
    connection's link, before the SEND's RECEIPT is written.

    ``policy`` supplies per-login clearance: a login naming a unit gets
    the unit's (withholding-adjusted) privileges, and every other login
    is refused and audited as ``unknown principal``. Without a policy
    every login is accepted with empty clearance — only unlabelled events
    flow, which is fail-safe.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        broker: Broker,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[Policy] = None,
        tls_context: Optional[ssl.SSLContext] = None,
        audit: Optional[AuditLog] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ):
        self.broker = broker
        self.policy = policy
        self.tls_context = tls_context
        self.audit = audit if audit is not None else default_audit_log()
        #: Dead-letters events whose ``ack: client`` consumers died with
        #: the delivery in flight (same DLQ semantics as the engine's).
        self.supervisor = Supervisor(supervision)
        #: Operator-facing ledger of those dead-letter decisions.
        self.dead_letters: list = []
        self._dead_letter_lock = threading.Lock()
        #: (principal, destination) -> broker subscription id of an
        #: orphan tombstone standing in for a dead client-ack consumer.
        self._orphans: Dict[Tuple[str, str], str] = {}
        self._orphan_lock = threading.Lock()
        #: ``ack: client`` deliveries registered and not yet acked, nacked
        #: or swept (a dead-lettered one counts until its dead letter has
        #: been published): the state a drain barrier reads.
        self.in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _Connection)

    def count_in_flight(self, delta: int) -> None:
        with self._in_flight_lock:
            self.in_flight += delta

    def dead_letter_unacked(
        self, principal: str, event: Event, message_id: str, reason: str
    ) -> None:
        """Route an unacknowledged in-flight event to the DLQ ladder."""
        dead = self.supervisor.dead_letter(
            self.broker, self.audit, principal, event, reason, attempts=1
        )
        with self._dead_letter_lock:
            self.dead_letters.append(
                {
                    "principal": principal,
                    "topic": event.topic,
                    "message_id": message_id,
                    "reason": reason,
                    "labels": event.labels.to_uris(),
                    "published": dead is not None,
                }
            )

    # -- orphan tombstones ----------------------------------------------------

    def orphan_subscription(
        self,
        principal: str,
        clearance: PrivilegeSet,
        destination: str,
        selector: Optional[str] = None,
        require_integrity: Optional[LabelSet] = None,
    ) -> None:
        """Stand in for a dead ``ack: client`` consumer.

        The tombstone subscribes with the dead consumer's principal and
        clearance (so label filtering matches exactly what the consumer
        would have seen) and dead-letters every delivery — events
        published while the consumer is being restarted elsewhere land
        on ``/_dlq.<principal>`` instead of fanning out to nobody. The
        consumer's next SUBSCRIBE to the destination adopts (drops) it.
        """
        key = (principal, destination)
        with self._orphan_lock:
            if key in self._orphans:
                return

            def tombstone(event: Event, _principal=principal) -> None:
                self.dead_letter_unacked(
                    _principal,
                    event,
                    "orphan",
                    reason="subscriber connection lost; no live consumer",
                )

            subscription = self.broker.subscribe(
                destination,
                tombstone,
                principal=principal,
                clearance=clearance,
                selector=selector,
                require_integrity=require_integrity or LabelSet(),
            )
            self._orphans[key] = subscription.subscription_id
        self.audit.denied(
            "stomp",
            "orphan",
            principal,
            detail=f"{destination}: client-ack consumer lost; "
            "dead-lettering until it resubscribes",
        )

    def adopt_orphan(self, principal: str, destination: str) -> None:
        """Drop the tombstone once a live consumer subscribed again."""
        with self._orphan_lock:
            subscription_id = self._orphans.pop((principal, destination), None)
        if subscription_id is None:
            return
        self.broker.unsubscribe(subscription_id)
        self.audit.allowed(
            "stomp",
            "adopt",
            principal,
            detail=f"{destination}: live consumer resubscribed; tombstone dropped",
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self):
        return self.server_address

    def start(self) -> "StompServer":
        # The default 0.5 s shutdown poll would stall every stop().
        self._thread = threading.Thread(
            target=self.serve_forever, args=(0.02,), name="safeweb-stomp", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(5)
            self._thread = None

    # -- authentication ----------------------------------------------------------

    def authenticate(self, login: str) -> Optional[PrivilegeSet]:
        """Resolve a login to its clearance; ``None`` means reject."""
        if self.policy is None:
            return PrivilegeSet.empty()
        if login in self.policy.unit_names:
            return self.policy.unit(login).effective_clearance()
        self.audit.denied("stomp", "connect", login, detail="unknown principal")
        return None

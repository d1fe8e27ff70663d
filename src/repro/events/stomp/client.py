"""STOMP client for the SafeWeb broker.

The paper's client side sits on EventMachine; here a listener thread
runs the connection's :class:`~repro.events.stomp.link.FrameLink` and
dispatches MESSAGE frames to per-subscription callbacks as reconstructed
:class:`Event` objects (labels included). Other frames (CONNECTED,
RECEIPT, ERROR) resolve waiting calls, giving a simple blocking API:

    client = StompClient(host, port, login="data_producer").connect()
    client.subscribe("/patient_report", on_event, selector="type = 'cancer'")
    client.send("/patient_report", {"type": "cancer"}, labels=[...])
    client.disconnect()
"""

from __future__ import annotations

import functools
import itertools
import queue
import socket
import ssl
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.labels import Label, LabelSet
from repro.events.event import Event
from repro.events.stomp.frames import Frame
from repro.events.stomp.link import FrameLink
from repro.events.stomp.server import (
    LABEL_HEADER,
    REQUIRE_INTEGRITY_HEADER,
    RESERVED_HEADERS,
    frame_to_event,
)
from repro.exceptions import SafeWebError, StompProtocolError
from repro.faults import NULL_FAULTS, ChaosInjector, InjectedFault

_client_ids = itertools.count(1)


class StompClient:
    """A blocking STOMP client with a background listener thread — the
    only thread that touches the socket; other threads queue frames on
    the link, which wakes it at once (:mod:`repro.events.stomp.link`)."""

    def __init__(
        self,
        host: str,
        port: int,
        login: str = "anonymous",
        passcode: str = "",
        tls_context: Optional[ssl.SSLContext] = None,
        timeout: float = 10.0,
        chaos: ChaosInjector = NULL_FAULTS,
    ):
        self._host = host
        self._port = port
        self._login = login
        self._passcode = passcode
        self._tls_context = tls_context
        self._timeout = timeout
        self._chaos = chaos
        self._sock: Optional[socket.socket] = None
        self._link: Optional[FrameLink] = None
        #: subscription id -> (callback, client-ack?); a client-ack
        #: callback gets ``(event, message_id)`` to ack when it is done.
        self._callbacks: Dict[str, Tuple[Callable, bool]] = {}
        self._control: "queue.Queue[Frame]" = queue.Queue()
        #: One receipt-confirmed exchange at a time: no RECEIPT is stolen.
        self._exchange = threading.Lock()
        #: This session's tracked SEND receipts, oldest first.
        self._receipts: Dict[str, Callable[[bool], None]] = {}
        self._receipts_lock = threading.Lock()
        self._connected = threading.Event()
        self.errors: list = []

    # -- lifecycle -----------------------------------------------------------

    def connect(self) -> "StompClient":
        # A fresh control queue, bound to this session's listener: an
        # earlier session's connection-lost notice must not fail this one.
        control = self._control = queue.Queue()
        receipts = self._receipts = {}
        sock = socket.create_connection((self._host, self._port), timeout=self._timeout)
        if self._tls_context is not None:
            sock = self._tls_context.wrap_socket(sock, server_hostname=self._host)
        self._sock = sock
        self._link = FrameLink(
            sock,
            functools.partial(self._on_frames, control, receipts),
            write_timeout=self._timeout,
            before_write=functools.partial(self._chaos.hit, "stomp.client.flush"),
        )
        threading.Thread(
            target=self._listen,
            args=(self._link, control, receipts),
            name="safeweb-stomp-client",
            daemon=True,
        ).start()
        self._transmit(
            Frame("CONNECT", {"login": self._login, "passcode": self._passcode})
        )
        self._await_control("CONNECTED")
        self._connected.set()
        return self

    def disconnect(self) -> None:
        if self._sock is None:
            return
        try:
            self._confirmed(Frame("DISCONNECT"), timeout=1.0)
        except Exception:  # noqa: BLE001 - best-effort goodbye
            pass
        finally:
            self._close()

    @property
    def connected(self) -> bool:
        # A socket closed under the sleeping listener wakes nobody, so
        # the health check looks at the descriptor as well.
        sock = self._sock
        return self._connected.is_set() and sock is not None and sock.fileno() != -1

    # -- messaging ------------------------------------------------------------

    def send(
        self,
        destination: str,
        attributes: Optional[dict] = None,
        payload: "str | bytes" = "",
        labels: LabelSet | Iterable[Label | str] = (),
        receipt: "bool | Callable[[bool], None]" = False,
    ) -> None:
        """Publish one event. ``receipt=True`` blocks until it is confirmed; a
        callable is called back, ``receipt(ok)``, by the listener — never raise."""
        if not isinstance(labels, LabelSet):
            labels = LabelSet(labels)
        headers = {"destination": destination}
        for name, value in (attributes or {}).items():
            if str(name) in RESERVED_HEADERS:
                raise StompProtocolError(f"attribute name {name!r} is reserved")
            headers[str(name)] = str(value)
        if labels:
            headers[LABEL_HEADER] = ",".join(labels.to_uris())
        frame = Frame("SEND", headers, payload or "")
        if receipt is True:
            self._confirmed(frame)
        elif receipt:
            self._track(frame, receipt)
        else:
            self._transmit(frame)

    def subscribe(
        self,
        destination: str,
        callback: Callable[[Event], None],
        selector: Optional[str] = None,
        subscription_id: Optional[str] = None,
        require_integrity: LabelSet | Iterable[Label | str] = (),
        ack: str = "auto",
    ) -> str:
        subscription_id = subscription_id or f"client-sub-{next(_client_ids)}"
        headers = {"destination": destination, "id": subscription_id}
        if selector:
            headers["selector"] = selector
        if ack != "auto":
            headers["ack"] = ack
        if not isinstance(require_integrity, LabelSet):
            require_integrity = LabelSet(require_integrity)
        if require_integrity:
            headers[REQUIRE_INTEGRITY_HEADER] = ",".join(require_integrity.to_uris())
        self._callbacks[subscription_id] = (callback, ack != "auto")
        self._confirmed(Frame("SUBSCRIBE", headers))
        return subscription_id

    def ack(self, message_id: str, subscription_id: Optional[str] = None) -> None:
        """Acknowledge a ``ack="client"`` delivery (non-blocking).

        Fire-and-forget by design: acks are frequently sent from inside
        delivery callbacks, which run on the listener thread — a
        blocking receipt wait there would deadlock the connection.
        """
        self._settle("ACK", message_id, subscription_id)

    def nack(self, message_id: str, subscription_id: Optional[str] = None) -> None:
        """Refuse a delivery; the server dead-letters it immediately."""
        self._settle("NACK", message_id, subscription_id)

    def _settle(self, command: str, message_id: str, subscription_id: Optional[str]) -> None:
        headers = {"message-id": message_id}
        if subscription_id is not None:
            headers["subscription"] = subscription_id
        self._transmit(Frame(command, headers))

    def unsubscribe(self, subscription_id: str) -> None:
        self._callbacks.pop(subscription_id, None)
        self._confirmed(Frame("UNSUBSCRIBE", {"id": subscription_id}))

    # -- internals ---------------------------------------------------------------

    def _transmit(self, frame: Frame) -> None:
        if self._sock is None:
            raise SafeWebError("client is not connected")
        self._link.send(frame)

    def _confirmed(self, frame: Frame, timeout: Optional[float] = None) -> None:
        """Transmit *frame* and block until the broker's RECEIPT names it."""
        receipt = f"{frame.command.lower()}-{next(_client_ids)}"
        frame.headers["receipt"] = receipt
        with self._exchange:
            self._transmit(frame)
            self._await_control("RECEIPT", receipt, timeout)

    def _track(self, frame: Frame, on_receipt: Callable[[bool], None]) -> None:
        frame.headers["receipt"] = receipt = f"send-{next(_client_ids)}"
        with self._receipts_lock:  # settled exactly once, even on a dying link
            if not self._connected.is_set():
                raise SafeWebError("connection lost")
            self._receipts[receipt] = on_receipt
            self._transmit(frame)

    def _settle_receipts(self, receipts: dict, ok: bool, *names: str) -> None:
        """Call ``on_receipt(ok)`` for the tracked receipts *names* (all if none)."""
        with self._receipts_lock:
            settled = [receipts.pop(name, None) for name in names or list(receipts)]
        for on_receipt in filter(None, settled):
            on_receipt(ok)

    def _await_control(
        self, command: str, receipt: Optional[str] = None, timeout: Optional[float] = None
    ) -> Frame:
        """The next *command* frame (for a RECEIPT: the one echoing *receipt*).

        A RECEIPT with another id answers an exchange that timed out and
        is dropped; ERROR (the broker's, or the listener's
        connection-lost notice) and any other command raise.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else self._timeout)
        while True:
            try:
                frame = self._control.get(timeout=max(deadline - time.monotonic(), 0))
            except queue.Empty:
                raise SafeWebError(f"timed out waiting for {command}") from None
            if frame.command == "ERROR":
                raise SafeWebError(f"broker error: {frame.header('message')}")
            if frame.command != command:
                raise SafeWebError(f"expected {command}, broker sent {frame.command}")
            if receipt is None or frame.header("receipt-id") == receipt:
                return frame

    def _listen(self, link: FrameLink, control: "queue.Queue[Frame]", receipts) -> None:
        try:
            link.run()
        except InjectedFault:
            pass  # an injected flush fault is a socket death like any other
        finally:
            self._connected.clear()
            # Fail any blocked _await_control caller and tracked receipt
            # fast, and make the *next* blocking call fail too (sends are
            # fire-and-forget otherwise): a dead connection must be observable.
            self._settle_receipts(receipts, False)
            control.put(Frame("ERROR", {"message": "connection lost"}))

    def _on_frames(self, control: "queue.Queue[Frame]", receipts, frames: List[Frame]) -> None:
        for frame in frames:
            if frame.command == "MESSAGE":
                self._on_message(frame)
            elif frame.command == "RECEIPT" and frame.header("receipt-id") in receipts:
                self._settle_receipts(receipts, True, frame.header("receipt-id"))
            else:
                if frame.command == "ERROR":
                    # Sent ahead of earlier frames' RECEIPTs: no SEND is known good.
                    self._settle_receipts(receipts, False)
                control.put(frame)

    def _on_message(self, frame: Frame) -> None:
        callback, client_ack = self._callbacks.get(
            frame.header("subscription", ""), (None, False)
        )
        if callback is None:
            return
        event = frame_to_event(frame)
        try:
            if client_ack:
                callback(event, frame.header("message-id", ""))
            else:
                callback(event)
        except Exception as error:  # noqa: BLE001 - callbacks must not kill the listener
            self.errors.append(error)

    def _close(self) -> None:
        if self._sock is not None:
            self._link.stop()  # the listener closes the socket on its way out
            self._sock = None
        self._connected.clear()

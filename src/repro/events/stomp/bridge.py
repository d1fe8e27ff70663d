"""Engine-to-remote-broker bridge (the paper's deployment topology).

In the ECRIC deployment the broker is a separate process (Figure 4, item
1) and the event processing engine talks to it over STOMP. This bridge
gives an :class:`~repro.events.engine.EventProcessingEngine` the same
``subscribe``/``publish`` surface as the in-process
:class:`~repro.events.broker.Broker` while speaking STOMP underneath.

Two threading details mirror Figure 2:

* **publishes are queued**: unit callbacks run inside the IFC jail and
  may not touch sockets, so ``publish`` enqueues and a trusted sender
  thread (the engine's ``$SAFE=0`` STOMP client) performs the I/O;
* **deliveries arrive on the client listener thread**, which then enters
  the jail per callback exactly like local dispatch.

The bridge is a *long-lived link* and treats the connection as
unreliable (docs/ROBUSTNESS.md): a failed send is audited and retried
through a reconnect-with-backoff ladder that re-establishes the STOMP
session and **resubscribes every tracked subscription** before the
event is sent again; only after :data:`MAX_SEND_ATTEMPTS` failures is the
event parked on :attr:`StompBrokerBridge.dead_letters` (audited) — the
sender thread itself never dies, and nothing is lost silently. Sends
are receipt-confirmed, :data:`SEND_WINDOW` runs at a time: a link death
resends them all in order — repeating up to a window of events, losing none.

Clearance passed to ``subscribe`` is advisory here: the *server* resolves
the connection's principal against its own policy, so a buggy or
compromised engine host cannot claim clearance it does not have.
"""

from __future__ import annotations

import functools
import itertools
import queue
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import LabelSet
from repro.core.privileges import PrivilegeSet
from repro.events.event import Event
from repro.events.stomp import client as stomp_client
from repro.events.stomp.client import StompClient
from repro.exceptions import SafeWebError
from repro.faults import NULL_FAULTS, FaultInjector, SimulatedCrash

#: Most runs a link keeps sent but not yet receipt-confirmed.
SEND_WINDOW = 8

#: Send attempts for a unit of runs before it is parked on ``dead_letters``.
MAX_SEND_ATTEMPTS = 3

#: Seconds slept after the first failed attempt, doubling per attempt.
BACKOFF_BASE = 0.05

#: Cap, in seconds, on the exponential sleep between send attempts.
BACKOFF_MAX = 2.0


class _BridgeStats:
    __slots__ = ("published", "delivered", "errors", "reconnects", "dead_lettered")

    def __init__(self):
        self.published = 0
        self.delivered = 0
        self.errors = 0
        self.reconnects = 0
        self.dead_lettered = 0


class _Run:
    """Events sent as one unit, and the callbacks waiting on its receipt."""

    __slots__ = ("events", "markers", "ok")

    def __init__(self, events: List[Event]):
        self.events = events
        self.markers: List[Callable[[bool], None]] = []
        self.ok: Optional[bool] = None  # True once receipted, False once parked


class _BridgeSubscription:
    __slots__ = ("subscription_id", "topic", "principal", "active")

    def __init__(self, subscription_id: str, topic: str, principal: str):
        self.subscription_id = subscription_id
        self.topic = topic
        self.principal = principal
        self.active = True


class StompBrokerBridge:
    """A Broker-compatible facade over a STOMP connection.

    One bridge per unit principal: the STOMP login *is* the principal,
    which is what lets the server enforce clearance per §4.2.
    """

    def __init__(
        self,
        host: str,
        port: int,
        login: str,
        tls_context=None,
        audit: Optional[AuditLog] = None,
        faults: FaultInjector = NULL_FAULTS,
    ):
        self._host = host
        self._port = port
        self._login = login
        self._tls_context = tls_context
        self._audit = audit if audit is not None else default_audit_log()
        self._faults = faults
        self._client = self._new_client()
        #: Runs to send (a single publish is a run of one), () to wake
        #: the sender, None to stop it.
        self._outgoing: "queue.Queue[_Run | tuple | None]" = queue.Queue()
        #: Sent runs not yet settled (oldest first) and the run queued last.
        self._window: List[_Run] = []
        self._last: Optional[_Run] = None
        self._settled = threading.Condition()
        self._lost = False  # the current session died under unconfirmed runs
        self._sender: Optional[threading.Thread] = None
        self._subscriptions: Dict[str, _BridgeSubscription] = {}
        #: subscription_id -> kwargs needed to re-issue it on reconnect.
        self._subscription_specs: Dict[str, dict] = {}
        #: Events given up on after MAX_SEND_ATTEMPTS (audited, kept for
        #: inspection/replay — the bridge-level dead-letter parking lot).
        self.dead_letters: List[Event] = []
        self.stats = _BridgeStats()

    # -- lifecycle -----------------------------------------------------------

    def _new_client(self) -> StompClient:
        return StompClient(
            self._host,
            self._port,
            login=self._login,
            tls_context=self._tls_context,
            faults=self._faults,
        )

    def connect(self) -> "StompBrokerBridge":
        """Connect (idempotent); a closed bridge reconnects cleanly."""
        if self._sender is not None:
            return self
        if not self._client.connected:
            self._client = self._new_client()
            self._faults.hit("bridge.connect")
            self._client.connect()
        self._sender = threading.Thread(
            target=self._send_loop, name=f"safeweb-bridge-{self._login}", daemon=True
        )
        self._sender.start()
        return self

    def close(self) -> None:
        """Stop the sender and disconnect (idempotent).

        Subscription bookkeeping is cleared: a later :meth:`connect`
        starts a fresh session and callers re-subscribe, exactly like a
        gateway restart.
        """
        if self._sender is not None:
            self._outgoing.put(None)
            self._sender.join(5)
            self._sender = None
        self._client.disconnect()
        self._subscriptions.clear()
        self._subscription_specs.clear()

    def drain(self, timeout: float = 5.0) -> bool:
        """Block until queued publishes were receipt-confirmed (or dead-lettered).

        False when *timeout* ran out first: something queued before the
        call is still unconfirmed.
        """
        done = threading.Event()
        self.after_confirmed(lambda ok: done.set())
        return done.wait(timeout)

    def after_confirmed(self, callback: Callable[[bool], None], run: Optional[_Run] = None):
        """Call ``callback(ok)``, maybe on the link's I/O thread, once *run* (by
        default: all queued so far) is receipt-confirmed, *ok*, or dead-lettered."""
        with self._settled:
            run = run or self._last
            if run is not None and run.ok is None:
                run.markers.append(callback)
                return
        callback(run is None or run.ok)

    # -- health ---------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while the link can make progress: connected, sender alive."""
        return (
            self._sender is not None
            and self._sender.is_alive()
            and self._client.connected
        )

    def probe(self) -> dict:
        """Health probe: link state + counters, cheap enough to poll."""
        return {
            "connected": self._client.connected,
            "sender_alive": self._sender is not None and self._sender.is_alive(),
            "outgoing_depth": self._outgoing.qsize(),
            "unconfirmed": len(self._window),
            "subscriptions": len(self._subscriptions),
            "published": self.stats.published,
            "delivered": self.stats.delivered,
            "errors": self.stats.errors,
            "reconnects": self.stats.reconnects,
            "dead_lettered": self.stats.dead_lettered,
        }

    def ensure_connected(self) -> bool:
        """Reconnect now if the link is down; True when healthy after."""
        if self.healthy:
            return True
        if self._sender is None:
            return False  # closed bridges stay closed; connect() restarts
        self._reestablish()
        return self.healthy

    # -- the Broker surface the engine uses -------------------------------------

    def subscribe(
        self,
        topic: str,
        callback: Callable[[Event], None],
        principal: str = "anonymous",
        clearance: Optional[PrivilegeSet] = None,  # resolved server-side
        selector=None,
        subscription_id: Optional[str] = None,
        require_integrity: Optional[LabelSet] = None,
        ack: str = "auto",
    ) -> _BridgeSubscription:
        """Subscribe through the link.

        With ``ack="client"`` the *callback* receives ``(event,
        message_id)`` and must call :meth:`ack` when it has durably
        finished with the event — an unacked delivery dead-letters at
        the server if this side dies (the cluster's at-least-once hop).
        """
        selector_text = getattr(selector, "text", selector)
        integrity = require_integrity or LabelSet()

        def deliver(event: Event, *message_id: str) -> None:
            # The client adds the message id for ``ack="client"`` only.
            self.stats.delivered += 1
            callback(event, *message_id)

        sub_id = self._client.subscribe(
            topic,
            deliver,
            selector=selector_text,
            subscription_id=subscription_id,
            require_integrity=integrity,
            ack=ack,
        )
        subscription = _BridgeSubscription(sub_id, topic, principal)
        self._subscriptions[sub_id] = subscription
        self._subscription_specs[sub_id] = {
            "topic": topic,
            "deliver": deliver,
            "selector": selector_text,
            "require_integrity": integrity,
            "ack": ack,
        }
        return subscription

    def ack(self, message_id: str) -> None:
        """Acknowledge a ``ack="client"`` delivery (non-blocking)."""
        self._client.ack(message_id)

    def nack(self, message_id: str) -> None:
        """Refuse a delivery; the server dead-letters it immediately."""
        self._client.nack(message_id)

    def unsubscribe(self, subscription_id: str) -> None:
        subscription = self._subscriptions.pop(subscription_id, None)
        self._subscription_specs.pop(subscription_id, None)
        if subscription is not None:
            subscription.active = False
            self._client.unsubscribe(subscription_id)

    def subscriptions_for(self, principal: str) -> List[_BridgeSubscription]:
        return [s for s in self._subscriptions.values() if s.principal == principal]

    def publish(self, event: Event, publisher: str = "anonymous") -> Optional[_Run]:
        """Queue an event for transmission (jail-safe); see :meth:`publish_many`."""
        return self.publish_many([event], publisher)

    def publish_many(self, events, publisher: str = "anonymous") -> Optional[_Run]:
        """Queue a batch; the sender writes the run back-to-back.

        Only the final SEND of the run asks for a receipt — the server
        processes a connection's frames in order, so one confirmation
        covers the whole batch. The link writes everything queued in one
        send, so the frames tend to arrive together and the server
        publishes them as :meth:`Broker.publish_many` runs. Returns the
        queued run (None for no events), for :meth:`after_confirmed`."""
        batch = list(events)
        if not batch:
            return None
        self.stats.published += len(batch)
        with self._settled:  # default markers wait on the run queued last
            run = self._last = _Run(batch)
            self._outgoing.put(run)
        return run

    def __len__(self) -> int:
        return len(self._subscriptions)

    # -- internals ------------------------------------------------------------------

    def _send_loop(self) -> None:
        """Send runs without waiting for their receipts, at most
        :data:`SEND_WINDOW` unconfirmed; any failure goes to :meth:`_resend`."""
        while True:
            try:
                item = self._outgoing.get(
                    timeout=stomp_client.EXCHANGE_TIMEOUT if self._window else None
                )
            except queue.Empty:
                self._resend(SafeWebError("no RECEIPT in time"))
                continue
            if item is None:
                return
            failure = self._wait(lambda: len(self._window) < SEND_WINDOW)
            if item:
                with self._settled:
                    self._window.append(item)
                failure = failure or self._transmit([item])
            if failure is not None:
                self._resend(failure)

    def _transmit(self, runs: List[_Run]) -> Optional[Exception]:
        """Send *runs*, tracking a receipt on each one's last frame; the error if one raised."""
        client = self._client
        try:
            self._faults.hit("bridge.send")
            for run in runs:
                last = len(run.events) - 1
                for index, event in enumerate(run.events):
                    client.send(
                        event.topic,
                        attributes=event.attributes,
                        payload=event.payload or "",
                        labels=event.labels,
                        receipt=index == last and functools.partial(self._on_receipt, client, run),
                    )
        except SimulatedCrash:
            raise
        except Exception as error:  # noqa: BLE001 - the sender must keep draining
            return error
        return None

    def _on_receipt(self, client: StompClient, run: _Run, failure: Optional[str]) -> None:
        if failure is None:
            self._settle([run])
        elif client is self._client:  # not a session the ladder already replaced
            with self._settled:
                self._lost = True
                self._settled.notify_all()
            self._outgoing.put(())  # wake an idle sender to resend

    def _resend(self, error: Optional[Exception]) -> None:
        """Survive a link failure: every unconfirmed run, in order, as one unit.

        Each failed attempt is audited; between attempts the session is
        re-established with backoff and the unit sent again, awaiting its
        receipt — a run may arrive twice (at-least-once). After the attempt
        budget the unit is parked on :attr:`dead_letters`."""
        for attempt in itertools.count(1):
            with self._settled:
                unit = [run for run in self._window if run.ok is None]
            if error is None or not unit:
                return  # resent, or confirmed meanwhile after all
            events = [event for run in unit for event in run.events]
            self.stats.errors += 1
            labels = LabelSet(label for event in events for label in event.labels)
            described = ", ".join(sorted({event.topic for event in events}))
            if len(events) > 1:
                described += f" (batch of {len(events)})"
            detail = f"send to {described} failed (attempt {attempt}): {error!r}"
            self._audit.denied("bridge", "send", self._login, labels=labels, detail=detail)
            if attempt >= MAX_SEND_ATTEMPTS:
                detail = f"event for {described} parked after {attempt} attempt(s)"
                self._audit.denied(
                    "bridge", "dead_letter", self._login, labels=labels, detail=detail
                )
                self._settle(unit, False)
                return
            time.sleep(min(BACKOFF_BASE * 2 ** (attempt - 1), BACKOFF_MAX))
            self._reestablish()
            self._lost = False
            error = self._transmit(unit) or self._wait(lambda: unit[-1].ok is not None)

    def _wait(self, done: Callable[[], bool]) -> Optional[Exception]:
        """Wait until *done*; the link's failure instead, if it comes first."""
        with self._settled:
            if not self._settled.wait_for(
                lambda: self._lost or done(), stomp_client.EXCHANGE_TIMEOUT
            ):
                return SafeWebError("no RECEIPT in time")
        return SafeWebError("connection lost") if self._lost else None

    def _settle(self, runs: List[_Run], ok: bool = True) -> None:
        """Confirm or park (on :attr:`dead_letters`) *runs*; call their markers."""
        with self._settled:
            runs = [run for run in runs if run.ok is None]  # not a late RECEIPT
            for run in runs:
                run.ok = ok
                if not ok:
                    self.stats.dead_lettered += len(run.events)
                    self.dead_letters.extend(run.events)
            while self._window and self._window[0].ok is not None:
                del self._window[0]
            self._settled.notify_all()
        for callback in [callback for run in runs for callback in run.markers]:
            try:
                callback(ok)
            except Exception as error:  # noqa: BLE001 - the link's threads must survive
                self._audit.denied("bridge", "confirm", self._login, detail=repr(error))

    def _reestablish(self) -> None:
        """Tear down the dead client, connect a fresh one, resubscribe.

        Best-effort: a failure here is audited and left for the next
        send attempt's backoff round to retry.
        """
        try:
            self._client.disconnect()
        except Exception:  # noqa: BLE001 - the old session is already dead
            pass
        try:
            self._faults.hit("bridge.connect")
            client = self._new_client()
            client.connect()
            for sub_id, spec in self._subscription_specs.items():
                client.subscribe(
                    spec["topic"],
                    spec["deliver"],
                    selector=spec["selector"],
                    subscription_id=sub_id,
                    require_integrity=spec["require_integrity"],
                    ack=spec.get("ack", "auto"),
                )
            self._client = client
            self.stats.reconnects += 1
            self._audit.allowed(
                "bridge",
                "reconnect",
                self._login,
                detail=f"session re-established; {len(self._subscription_specs)} "
                f"subscription(s) restored",
            )
        except SimulatedCrash:
            raise
        except Exception as error:  # noqa: BLE001 - retried by the next backoff round
            self._audit.denied(
                "bridge",
                "reconnect",
                self._login,
                detail=f"reconnect failed: {error!r}",
            )

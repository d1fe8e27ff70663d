"""Unit supervision: restart policies, retry budgets, dead-letter topics
and circuit breakers (the robustness layer; see docs/ROBUSTNESS.md).

SafeWeb's enforcement story assumes the pipeline keeps running — but a
buggy unit callback, a sick storage backend or a flapping link must not
silently lose labelled events. This module supplies the Erlang-style
machinery the engine wires around every supervised callback:

* :class:`SupervisionPolicy` — the knobs: per-event retry budget,
  one-for-one unit restarts bounded by max-restarts-per-window, and
  whether exhausted events dead-letter;
* :class:`UnitSupervisor` — per-unit bookkeeping (failure window,
  suspension state);
* :class:`Supervisor` — the engine-side coordinator that owns the unit
  supervisors and publishes **dead-letter events**: topic
  ``/_dlq.<unit>``, carrying the failed event's payload and attributes
  plus failure metadata (``dlq_unit``, ``dlq_topic``, ``dlq_reason``,
  ``dlq_attempts``) under the *original event's labels* — so inspecting
  a unit's dead letters requires the same clearance as receiving its
  events, and the broker's ordinary label checks gate the DLQ;
* :class:`CircuitBreaker` — a closed → open → half-open state machine
  guarding calls into a backend; every state transition is audited.

The contract the fault-schedule properties (tests/property/test_oracle.py)
pin: under injected faults, every delivered event is **observed** by
the unit, **dead-lettered** with its labels intact, or **audited as
denied** — never silently lost. The same suite's worker-kill test pins
the guarantee across a cluster worker process's death.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, TYPE_CHECKING

from repro.core.audit import AuditLog
from repro.events.event import Event
from repro.exceptions import CircuitOpenError, SafeWebError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.principals import UnitPrincipal

#: Dead-letter topics are ``/_dlq.<unit>`` — a single path segment, so a
#: DLQ subscription names exactly one unit's dead letters.
DLQ_PREFIX = "/_dlq."


def dlq_topic(unit_name: str) -> str:
    """The dead-letter topic for *unit_name*."""
    return DLQ_PREFIX + unit_name


def is_dlq_topic(topic: str) -> bool:
    return topic.startswith(DLQ_PREFIX)


class SupervisionPolicy:
    """The restart/retry/dead-letter knobs for a supervised engine.

    ``retry_budget`` is the number of *re*-invocations after the first
    failure (0 = fail straight to the dead-letter topic); retries and
    restarts follow the failure at once, without a backoff sleep. A
    unit that needs more than ``max_restarts`` restarts within
    ``restart_window`` seconds is **suspended**: its subscriptions stay
    live, but every subsequent delivery dead-letters immediately
    (audited), so nothing is ever dropped without a trace.
    """

    __slots__ = ("retry_budget", "max_restarts", "restart_window", "dead_letter")

    def __init__(
        self,
        retry_budget: int = 2,
        max_restarts: int = 3,
        restart_window: float = 30.0,
        dead_letter: bool = True,
    ):
        if retry_budget < 0:
            raise SafeWebError("retry_budget must be >= 0")
        if max_restarts < 0:
            raise SafeWebError("max_restarts must be >= 0")
        if restart_window <= 0:
            raise SafeWebError("restart_window must be positive")
        self.retry_budget = retry_budget
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        self.dead_letter = dead_letter


#: Decisions note_failure can return.
RESTART = "restart"
SUSPEND = "suspend"
ALREADY_SUSPENDED = "suspended"


class UnitSupervisor:
    """Per-unit failure bookkeeping (one-for-one supervision).

    The hot path (a successful delivery) touches only plain attribute
    reads; the failure path takes the lock to keep the restart window
    exact when several threads deliver to one unit.
    """

    __slots__ = ("name", "policy", "suspended", "restart_count", "_restarts", "_clock", "_lock")

    def __init__(self, name: str, policy: SupervisionPolicy, clock: Callable[[], float]):
        self.name = name
        self.policy = policy
        #: True once the unit exceeded max_restarts/window; deliveries
        #: dead-letter directly from then on.
        self.suspended = False
        self.restart_count = 0
        self._restarts: Deque[float] = deque()
        self._clock = clock
        self._lock = threading.Lock()

    def note_failure(self) -> str:
        """Record an exhausted delivery; decide restart vs suspend."""
        with self._lock:
            if self.suspended:
                return ALREADY_SUSPENDED
            now = self._clock()
            horizon = now - self.policy.restart_window
            restarts = self._restarts
            while restarts and restarts[0] < horizon:
                restarts.popleft()
            if len(restarts) >= self.policy.max_restarts:
                self.suspended = True
                return SUSPEND
            restarts.append(now)
            self.restart_count += 1
            return RESTART


class Supervisor:
    """Engine-side supervision coordinator.

    Owns one :class:`UnitSupervisor` per principal and the dead-letter
    publishing path. The engine calls :meth:`dead_letter` with the
    failed event after the retry budget is spent (or immediately, for
    non-retryable failures such as :class:`CircuitOpenError` and
    deliveries to a suspended unit); the dead-letter event is published
    through the engine's own broker under the original labels.

    Subclass and override :meth:`publish_dead_letter` to route dead
    letters elsewhere — the property suite's "deliberately lossy
    supervisor" does exactly that to prove the suite detects loss.
    """

    def __init__(
        self,
        policy: Optional[SupervisionPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy if policy is not None else SupervisionPolicy()
        self._clock = clock
        self._units: Dict[str, UnitSupervisor] = {}
        self._lock = threading.Lock()

    def unit(self, name: str) -> UnitSupervisor:
        supervisor = self._units.get(name)
        if supervisor is None:
            with self._lock:
                supervisor = self._units.get(name)
                if supervisor is None:
                    supervisor = UnitSupervisor(name, self.policy, self._clock)
                    self._units[name] = supervisor
        return supervisor

    def retryable(self, error: Exception) -> bool:
        """Whether spending retry budget on *error* can help.

        An open circuit breaker fails every call until its reset timeout
        elapses — immediate retries would just burn the budget — so
        :class:`CircuitOpenError` goes straight to the dead-letter
        topic (load shedding, not silent loss).
        """
        return not isinstance(error, CircuitOpenError)

    def dead_letter(
        self,
        broker,
        audit: AuditLog,
        principal_name: str,
        event: Event,
        reason: str,
        attempts: int,
    ) -> Optional[Event]:
        """Dead-letter *event* for *principal_name*; returns the DLQ event.

        Returns ``None`` without publishing when dead-lettering is
        disabled by policy or the event already sits on a DLQ topic (a
        failing DLQ consumer must not loop) — in both cases the decision
        is audited as denied, so the event is still never *silently*
        lost.
        """
        if not self.policy.dead_letter or is_dlq_topic(event.topic):
            audit.denied(
                "supervisor",
                "dead_letter",
                principal_name,
                labels=event.labels,
                detail=f"dead-letter suppressed for {event.topic}: {reason}",
            )
            return None
        attributes = dict(event.attributes)
        attributes.update(
            {
                "dlq_unit": principal_name,
                "dlq_topic": event.topic,
                "dlq_reason": reason,
                "dlq_attempts": str(attempts),
            }
        )
        dead = Event(dlq_topic(principal_name), attributes, event.payload, event.labels)
        audit.allowed(
            "supervisor",
            "dead_letter",
            principal_name,
            labels=event.labels,
            detail=f"{event.topic} -> {dead.topic} after {attempts} attempt(s): {reason}",
        )
        self.publish_dead_letter(broker, dead, principal_name)
        return dead

    def publish_dead_letter(self, broker, dead: Event, principal_name: str) -> None:
        """Hand the dead-letter event to the broker (override point)."""
        broker.publish(dead, publisher=f"supervisor:{principal_name}")


#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A closed → open → half-open breaker guarding backend calls.

    * **closed** — calls pass through; ``failure_threshold`` consecutive
      failures trip the breaker open;
    * **open** — calls raise :class:`CircuitOpenError` immediately (no
      backend contact) until ``reset_timeout`` seconds have passed;
    * **half-open** — one probe call is let through: success closes the
      breaker, failure re-opens it (and restarts the timeout).

    Every state transition is written to the audit log under component
    ``"breaker"`` — breaker flaps are security-relevant operational
    events in a pipeline whose units hold declassification privileges.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        audit: Optional[AuditLog] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise SafeWebError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise SafeWebError("reset_timeout must be >= 0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._audit = audit
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        #: True while a half-open probe is in flight.
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == OPEN and self._clock() - self._opened_at >= self.reset_timeout:
            self._transition(HALF_OPEN, "reset timeout elapsed")
        return self._state

    def _transition(self, state: str, why: str) -> None:
        previous, self._state = self._state, state
        if state != OPEN:
            self._probing = False
        if self._audit is not None and previous != state:
            record = self._audit.denied if state == OPEN else self._audit.allowed
            record("breaker", "transition", self.name, detail=f"{previous} -> {state}: {why}")

    def call(self, operation: Callable, *args, **kwargs):
        """Run *operation* under the breaker."""
        self.before_call()
        try:
            result = operation(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def before_call(self) -> None:
        """Admission check: raises :class:`CircuitOpenError` when open."""
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return
            if state == HALF_OPEN and not self._probing:
                self._probing = True  # exactly one probe at a time
                return
            raise CircuitOpenError(
                f"circuit {self.name!r} is {state}; call rejected", breaker=self.name
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state == HALF_OPEN:
                self._transition(CLOSED, "half-open probe succeeded")
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(OPEN, "half-open probe failed")
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._transition(
                    OPEN, f"{self._failures} consecutive failure(s)"
                )

"""The event processing engine (paper §4.3).

The engine is the runtime environment for units. Its key functions:

1. **control of unit execution** — every callback runs under a
   :class:`~repro.events.context.LabelContext` initialised to the labels
   of the event being processed, and (for non-privileged units) inside
   the IFC jail with a scope-isolated callback clone;
2. **privilege assignment** — unit principals come from the policy file;
   subscription clearance, publish-time declassification and endorsement
   are all checked against them;
3. **restriction of access to the environment** — privileged units
   (importers/exporters) run outside the jail but may have clearance for
   chosen labels withheld so they can never receive those events.

Execution
---------

Every delivery runs synchronously on the thread that delivers it — the
publisher's, or a threaded broker's dispatcher — and cascades nest.
Exceptions propagate to the publisher when ``raise_callback_errors`` is
set. Units that block on I/O, or that need to run in parallel, go to
the cluster engine (:mod:`repro.events.cluster`), whose workers each run
this same engine in their own process (docs/CLUSTER.md).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import Label, LabelSet
from repro.core.policy import Policy
from repro.core.principals import UnitPrincipal
from repro.events.broker import Broker
from repro.events.context import LabelContext, current_labels
from repro.events.event import Event, as_events
from repro.events.jail import Jail, isolate_callback
from repro.events.lanes import EngineStats
from repro.events.store import LabeledStore
from repro.events.supervision import (
    RESTART,
    SUSPEND,
    SupervisionPolicy,
    Supervisor,
    UnitSupervisor,
)
from repro.events.unit import Unit
from repro.exceptions import (
    DeclassificationError,
    EndorsementError,
    SafeWebError,
    SecurityViolation,
)
from repro.faults import NULL_FAULTS, ChaosInjector


class _UnitServices:
    """Engine-side handle injected into each unit.

    Deep-copying a unit (scope isolation) must *not* duplicate the
    services — the store and broker wiring are intentionally shared, like
    the paper's explicitly-tainted store — so ``__deepcopy__`` returns
    the instance itself.
    """

    def __init__(self, engine: "EventProcessingEngine", principal: UnitPrincipal):
        self._engine = engine
        self.principal = principal
        self.store = LabeledStore(principal, audit=engine.audit)
        #: Set by unregister: a detached unit (or a jail-isolated clone
        #: of one that kept this handle) can no longer reach the engine.
        self.closed = False

    def __deepcopy__(self, memo) -> "_UnitServices":
        return self

    def close(self) -> None:
        self.closed = True

    def _guard_open(self) -> None:
        if self.closed:
            raise SafeWebError(
                f"unit {self.principal.name!r} has been unregistered from the engine"
            )

    def register_subscription(
        self,
        topic: str,
        handler,
        selector: Optional[str],
        require_integrity: Optional[LabelSet] = None,
    ) -> None:
        self._guard_open()
        self._engine._register_subscription(
            self, topic, handler, selector, require_integrity
        )

    def publish(self, topic, attributes, payload, add, remove, remove_all) -> Event:
        self._guard_open()
        return self._engine._publish_from_unit(
            self.principal, topic, attributes, payload, add, remove, remove_all
        )


class EventProcessingEngine:
    """Runs units against a broker under IFC enforcement."""

    #: Deliveries never leave the delivering thread. The frozen benchmark
    #: harness reads this; it is constant (docs/ENGINE.md).
    parallel = False

    def __init__(
        self,
        broker: Optional[Broker] = None,
        policy: Optional[Policy] = None,
        audit: Optional[AuditLog] = None,
        isolation: bool = True,
        raise_callback_errors: bool = False,
        supervision: Optional[SupervisionPolicy | Supervisor] = None,
        chaos: ChaosInjector = NULL_FAULTS,
    ):
        self.broker = broker if broker is not None else Broker()
        self.policy = policy
        self.audit = audit if audit is not None else default_audit_log()
        self.isolation = isolation
        self.raise_callback_errors = raise_callback_errors
        self._jail = Jail()
        self._units: Dict[str, Unit] = {}
        self._services: Dict[str, _UnitServices] = {}
        self._lock = threading.Lock()
        self.stats = EngineStats()
        # ``supervision`` wraps every callback in the retry / restart /
        # dead-letter ladder (docs/ROBUSTNESS.md); default off preserves
        # the seed semantics exactly. Accepts a policy (the engine builds
        # the Supervisor) or a ready Supervisor instance (tests inject
        # subclasses). ``chaos`` is the fault-injection hook; hot paths
        # skip instrumentation entirely when it is NULL_FAULTS.
        if supervision is None:
            self.supervisor: Optional[Supervisor] = None
        elif isinstance(supervision, Supervisor):
            self.supervisor = supervision
        else:
            self.supervisor = Supervisor(supervision)
        self._chaos = chaos
        self._chaos_active = chaos is not NULL_FAULTS
        # Per-engine UnitSupervisor cache: Supervisor.unit() is stable
        # per name, so a plain dict lookup on the delivery fast path
        # avoids a method call per event.
        self._unit_supervisors: Dict[str, UnitSupervisor] = {}

    # -- unit lifecycle ------------------------------------------------------

    def register(self, unit: Unit, principal: Optional[UnitPrincipal] = None) -> Unit:
        """Attach *unit*, resolve its principal and run its ``setup``."""
        if principal is None:
            if self.policy is None:
                raise SafeWebError(
                    f"no policy configured; pass a principal for unit {unit.name!r}"
                )
            principal = self.policy.unit(unit.name)
        with self._lock:
            if unit.name in self._units:
                raise SafeWebError(f"unit {unit.name!r} already registered")
            services = _UnitServices(self, principal)
            self._units[unit.name] = unit
            self._services[unit.name] = services
        unit.attach(services)
        unit.setup()
        self.audit.allowed("engine", "register", principal.name)
        return unit

    def unregister(self, unit_name: str) -> None:
        """Detach a unit: its subscriptions and services handle go.

        Subscriptions are removed under the *principal* name they were
        registered with (which the policy may decouple from the unit
        name), the unit's ``teardown`` hook runs, and its services
        handle is closed — so neither the unit nor any jail-isolated
        clone that retained the handle can publish through the engine
        again.
        """
        with self._lock:
            unit = self._units.pop(unit_name, None)
            services = self._services.pop(unit_name, None)
        principal_name = services.principal.name if services is not None else unit_name
        for subscription in self.broker.subscriptions_for(principal_name):
            self.broker.unsubscribe(subscription.subscription_id)
        if unit is not None:
            try:
                unit.teardown()
            except Exception as error:  # noqa: BLE001 - buggy teardown must not block revocation
                self.audit.denied(
                    "engine",
                    "teardown",
                    principal_name,
                    detail=f"teardown error: {error!r}",
                )
            finally:
                unit._services = None
        if services is not None:
            services.close()
            self.audit.allowed("engine", "unregister", principal_name)

    @property
    def unit_names(self) -> List[str]:
        with self._lock:
            return sorted(self._units)

    def store_of(self, unit_name: str) -> LabeledStore:
        """The unit's store (tests and importers peek through this)."""
        with self._lock:
            return self._services[unit_name].store

    # -- draining --------------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until the broker has delivered everything queued.

        False when *timeout* ran out first. At once unless the broker is
        threaded: every cascade runs inside the delivery that caused it.
        """
        return self.broker.drain(timeout)

    def stop(self) -> None:
        """Nothing to stop: the engine owns no threads."""

    # -- ingress for non-unit producers ----------------------------------------

    def publish(
        self,
        topic: str,
        attributes: Optional[dict] = None,
        payload: Optional[str] = None,
        labels: LabelSet | Iterable[Label | str] = (),
        publisher: str = "external",
    ) -> Event:
        """Inject an externally produced, pre-labelled event."""
        event = Event(topic, attributes, payload, labels)
        self.broker.publish(event, publisher=publisher)
        return event

    def publish_batch(
        self,
        events: Iterable[Event | dict],
        publisher: str = "external",
    ) -> List[Event]:
        """Inject a batch of pre-labelled events through one broker call.

        Items are :class:`Event` instances or mappings with ``topic`` /
        ``attributes`` / ``payload`` / ``labels`` keys. Importers
        (backend ingest pipelines) use this so a burst of externally
        produced records pays one queue handoff instead of one per event.
        """
        batch = as_events(events)
        self.broker.publish_many(batch, publisher=publisher)
        return batch

    # -- internal: subscription wiring ---------------------------------------------

    def _register_subscription(
        self,
        services: _UnitServices,
        topic: str,
        handler,
        selector: Optional[str],
        require_integrity: Optional[LabelSet] = None,
    ) -> None:
        principal = services.principal
        if self.isolation and not principal.privileged:
            callback = isolate_callback(handler)
        else:
            callback = handler

        # A chaos fault at the deliver point raises on the delivering
        # thread, where the broker's containment audits it as a denied
        # delivery.
        deliver_point = f"engine.deliver:{principal.name}"

        def deliver(event: Event) -> None:
            if self._chaos_active:
                self._chaos.hit(deliver_point)
            self._run_callback(principal, callback, event)

        self.broker.subscribe(
            topic,
            deliver,
            principal=principal.name,
            clearance=principal.effective_clearance(),
            selector=selector,
            require_integrity=require_integrity,
        )

    def _run_callback(self, principal: UnitPrincipal, callback, event: Event) -> None:
        """Deliver *event* to one callback: the engine's only failure ladder.

        Every attempt goes through :meth:`_invoke`, so each starts from
        a fresh LabelContext and containment scope. Security violations
        are deterministic policy denials: audited, never retried, never
        dead-lettered. Any other exception is audited; without a
        supervisor that is all (``raise_callback_errors`` hands either
        kind on to a synchronous publisher), with one the policy's retry
        budget is spent, then the event is dead-lettered under its own
        labels and the unit gets its one-for-one restart bookkeeping.
        The fault-free path costs a supervised engine one dict lookup.
        SimulatedCrash is a BaseException and always propagates —
        supervision must not survive a "process death".
        """
        self.stats.bump("dispatched")
        supervisor = self.supervisor
        unit_sup = None
        if supervisor is not None:
            unit_sup = self._unit_supervisors.get(principal.name)
            if unit_sup is None:
                unit_sup = supervisor.unit(principal.name)
                self._unit_supervisors[principal.name] = unit_sup
            if unit_sup.suspended:
                self._dead_letter(principal, event, "unit suspended", attempts=0)
                return
        attempts = 1
        while True:
            try:
                self._invoke(principal, callback, event)
                return
            except SecurityViolation as violation:
                self._callback_denied(principal, event, f"{type(violation).__name__}: {violation}")
                if self.raise_callback_errors:
                    raise
                return
            except Exception as error:  # noqa: BLE001 - unit bugs must not kill the engine
                if unit_sup is None:
                    self._callback_denied(principal, event, f"unit error: {error!r}")
                    if self.raise_callback_errors:
                        raise
                    return
                self._callback_denied(
                    principal, event, f"unit error (attempt {attempts}): {error!r}"
                )
                if supervisor.retryable(error) and attempts <= supervisor.policy.retry_budget:
                    self.stats.bump("retries")
                    unit_sup.sleep_before_retry(attempts)
                    attempts += 1
                    continue
                self._dead_letter(principal, event, repr(error), attempts=attempts)
                self._handle_unit_failure(unit_sup, principal)
                return

    def _callback_denied(self, principal: UnitPrincipal, event: Event, detail: str) -> None:
        self.stats.bump("callback_errors")
        self.audit.denied(
            "engine", "callback", principal.name, labels=event.labels, detail=detail
        )

    def _invoke(self, principal: UnitPrincipal, callback, event: Event) -> None:
        """One callback invocation with its full security context.

        The LabelContext and (for unjailed principals) jail containment
        are entered *here*, per invocation — a supervised retry re-runs
        this whole method, so every attempt starts from a fresh ambient
        label set and a fresh containment scope.
        """
        if self._chaos_active:
            self._chaos.hit(f"engine.callback.before:{principal.name}")
        with LabelContext(event.labels):
            if self.isolation and not principal.privileged:
                with self._jail.contained():
                    callback(event)
            elif principal.privileged:
                # A privileged unit may be invoked synchronously from a
                # jailed publisher; its own execution is legitimately
                # unjailed (the paper's $SAFE=0 units).
                with self._lifted_jail():
                    callback(event)
            else:
                callback(event)
        if self._chaos_active:
            self._chaos.hit(f"engine.callback.after:{principal.name}")

    def _dead_letter(
        self, principal: UnitPrincipal, event: Event, reason: str, attempts: int
    ) -> None:
        dead = self.supervisor.dead_letter(
            self.broker, self.audit, principal.name, event, reason, attempts
        )
        if dead is not None:
            self.stats.bump("dead_lettered")

    def _handle_unit_failure(self, unit_sup, principal: UnitPrincipal) -> None:
        decision = unit_sup.note_failure()
        if decision == RESTART:
            self.stats.bump("restarts")
            unit_sup.sleep_before_restart()
            if self._restart_unit(principal.name):
                self.audit.allowed(
                    "supervisor",
                    "restart",
                    principal.name,
                    detail=f"one-for-one restart #{unit_sup.restart_count}",
                )
            else:
                self.audit.denied(
                    "supervisor",
                    "restart",
                    principal.name,
                    detail="restart failed; unit left as-is",
                )
        elif decision == SUSPEND:
            self.audit.denied(
                "supervisor",
                "suspend",
                principal.name,
                detail=(
                    f"exceeded {unit_sup.policy.max_restarts} restarts in "
                    f"{unit_sup.policy.restart_window}s; deliveries now dead-letter"
                ),
            )

    def _restart_unit(self, principal_name: str) -> bool:
        """One-for-one restart: run ``teardown``, register the unit's
        subscriptions afresh via ``setup``, then drop the old ones.
        Re-registration rebuilds the jail-isolated callback clones, so a
        restarted unit starts from the unit instance's current state
        with fresh subscription wiring.

        The new subscriptions go live *before* the old ones are removed:
        an event published concurrently with the swap may be delivered
        through both (at-least-once), but never falls into a window with
        no matching subscription (silent loss). Unsubscribe-first had
        exactly that hole whenever another thread published mid-swap.
        """
        with self._lock:
            unit = None
            for name, services in self._services.items():
                if services.principal.name == principal_name:
                    unit = self._units.get(name)
                    break
        if unit is None:
            return False
        stale = [
            subscription.subscription_id
            for subscription in self.broker.subscriptions_for(principal_name)
        ]
        try:
            unit.teardown()
        except Exception as error:  # noqa: BLE001 - teardown bugs must not block restart
            self.audit.denied(
                "engine",
                "teardown",
                principal_name,
                detail=f"teardown error during restart: {error!r}",
            )
        try:
            unit.setup()
        except Exception as error:  # noqa: BLE001 - restart failure is reported, not raised
            # The old subscriptions are still live — a unit whose setup
            # died keeps its previous wiring rather than going deaf.
            self.audit.denied(
                "engine",
                "setup",
                principal_name,
                detail=f"setup error during restart: {error!r}",
            )
            return False
        for subscription_id in stale:
            self.broker.unsubscribe(subscription_id)
        return True

    #: Entered around a privileged unit's callback (see :meth:`_invoke`).
    _lifted_jail = staticmethod(Jail.lifted)

    # -- internal: label-checked publish ----------------------------------------------

    def _publish_from_unit(
        self,
        principal: UnitPrincipal,
        topic: str,
        attributes: Optional[dict],
        payload: Optional[str],
        add: Iterable[Label | str],
        remove: Iterable[Label | str],
        remove_all: bool,
    ) -> Event:
        ambient = current_labels()
        add_set = LabelSet(add)
        remove_set = ambient if remove_all else LabelSet(remove)

        effective_removals = ambient.intersection(remove_set)
        missing = principal.privileges.missing_declassification(effective_removals)
        if missing:
            self.audit.denied(
                "engine",
                "declassify",
                principal.name,
                labels=LabelSet(missing),
                detail=f"publish to {topic}",
            )
            raise DeclassificationError(
                f"unit {principal.name!r} lacks declassification for "
                f"{sorted(label.uri for label in missing)}"
            )
        if add_set.integrity and not principal.privileges.can_endorse(add_set):
            self.audit.denied(
                "engine",
                "endorse",
                principal.name,
                labels=LabelSet(add_set.integrity),
                detail=f"publish to {topic}",
            )
            raise EndorsementError(
                f"unit {principal.name!r} lacks endorsement for "
                f"{sorted(label.uri for label in add_set.integrity)}"
            )

        labels = ambient.difference(remove_set).union(add_set)
        event = Event(topic, attributes, payload, labels)
        self.audit.allowed("engine", "publish", principal.name, labels=labels)
        self.broker.publish(event, publisher=principal.name)
        return event

"""The event processing engine (paper §4.3).

The engine is the runtime environment for units. Its key functions:

1. **control of unit execution** — every callback runs with the labels
   of the event being processed as its ambient label set
   (:mod:`repro.events.context`), and (for non-privileged units) inside
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
publisher's, or in a cluster worker its bridge listener — and cascades
nest.
Exceptions propagate to the publisher when ``raise_callback_errors`` is
set. Units that block on I/O, or that need to run in parallel, go to
the cluster engine (:mod:`repro.events.cluster`), whose workers each run
this same engine in their own process (docs/CLUSTER.md).
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Dict, Iterable, List, Optional

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import Label, LabelSet
from repro.core.policy import Policy
from repro.core.principals import UnitPrincipal
from repro.events.broker import Broker
from repro.events.context import _state as _label_state
from repro.events.context import current_labels
from repro.events.event import Event, as_events
from repro.events.jail import _state as _jail_state
from repro.events.jail import Jail, isolate_callback, nested_denied
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
from repro.faults import NULL_FAULTS, FaultInjector

#: The jail argument of a delivery that leaves containment as it is: an
#: unprivileged unit on an engine built with ``isolation=False``.
_NO_JAIL = object()


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
        faults: FaultInjector = NULL_FAULTS,
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
        # subclasses). ``faults`` is the fault-injection hook; hot paths
        # skip instrumentation entirely when it is NULL_FAULTS.
        if supervision is None:
            self.supervisor: Optional[Supervisor] = None
        elif isinstance(supervision, Supervisor):
            self.supervisor = supervision
        else:
            self.supervisor = Supervisor(supervision)
        self._faults = faults
        self._faults_active = faults is not NULL_FAULTS
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

        False when *timeout* ran out first. At once over a
        :class:`~repro.events.broker.Broker`: every cascade runs inside
        the delivery that caused it.
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
        if principal.privileged:
            # The paper's $SAFE=0 units run unjailed, also when a jailed
            # publisher triggers them synchronously: the jail is lifted.
            callback, jail = handler, None
        elif self.isolation:
            callback, jail = isolate_callback(handler), self._jail.denied_prefixes
        else:
            callback, jail = handler, _NO_JAIL
        self.broker.subscribe(
            topic,
            partial(self._run_callback, principal, jail, callback),
            principal=principal.name,
            clearance=principal.effective_clearance(),
            selector=selector,
            require_integrity=require_integrity,
        )

    def _run_callback(self, principal: UnitPrincipal, jail, callback, event: Event) -> None:
        """Deliver *event* to one callback: the engine's only failure ladder.

        The broker calls this directly (through a ``partial`` bound at
        subscribe time), so a delivery is one frame between the broker's
        loop and the callback. Each attempt enters its own security
        context inline — pushes the event's labels on the thread's
        ambient stack and puts *jail* (the denied prefixes, ``None`` to
        lift, ``_NO_JAIL`` to leave containment as it is) in force,
        nested as ``enter_jail`` nests — and restores both in a
        ``finally``, so every attempt starts from a fresh context and
        none leaks. The delivery counts into the thread's own
        ``EngineStats`` cell and takes no lock.
        Security violations are deterministic policy denials: audited,
        never retried, never dead-lettered. Any other exception is
        audited; without a supervisor that is all
        (``raise_callback_errors`` hands either kind on to a synchronous
        publisher), with one the policy's retry budget is spent, then
        the event is dead-lettered under its own labels and the unit gets
        its one-for-one restart bookkeeping. SimulatedCrash is a
        BaseException and always propagates — supervision must not
        survive a "process death".
        """
        faults = self._faults if self._faults_active else None
        if faults is not None:
            # Raises on the delivering thread, outside the ladder, where
            # the broker's containment audits it as a denied delivery.
            faults.hit(f"engine.deliver:{principal.name}")
        self.stats.cell().dispatched += 1
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
                if faults is not None:
                    faults.hit(f"engine.callback.before:{principal.name}")
                stack = _label_state.stack
                stack.append(event.labels)
                try:
                    if jail is _NO_JAIL:
                        callback(event)
                    else:
                        outer = getattr(_jail_state, "denied_prefixes", None)
                        _jail_state.denied_prefixes = (
                            jail if outer is None else nested_denied(outer, jail)
                        )
                        try:
                            callback(event)
                        finally:
                            _jail_state.denied_prefixes = outer
                finally:
                    stack.pop()
                if faults is not None:
                    faults.hit(f"engine.callback.after:{principal.name}")
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
                    self.stats.cell().retries += 1
                    attempts += 1
                    continue
                self._dead_letter(principal, event, repr(error), attempts=attempts)
                self._handle_unit_failure(unit_sup, principal)
                return

    def _callback_denied(self, principal: UnitPrincipal, event: Event, detail: str) -> None:
        self.stats.cell().callback_errors += 1
        self.audit.denied(
            "engine", "callback", principal.name, labels=event.labels, detail=detail
        )

    def _dead_letter(
        self, principal: UnitPrincipal, event: Event, reason: str, attempts: int
    ) -> None:
        dead = self.supervisor.dead_letter(
            self.broker, self.audit, principal.name, event, reason, attempts
        )
        if dead is not None:
            self.stats.cell().dead_lettered += 1

    def _handle_unit_failure(self, unit_sup, principal: UnitPrincipal) -> None:
        decision = unit_sup.note_failure()
        if decision == RESTART:
            self.stats.cell().restarts += 1
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
        if not add and not remove and not remove_all:
            labels = ambient  # nothing to declassify or endorse
        else:
            labels = self._relabel(principal, topic, ambient, add, remove, remove_all)
        event = Event(topic, attributes, payload, labels)
        self.audit.allowed("engine", "publish", principal.name, labels=labels)
        self.broker.publish(event, publisher=principal.name)
        return event

    def _relabel(
        self,
        principal: UnitPrincipal,
        topic: str,
        ambient: LabelSet,
        add: Iterable[Label | str],
        remove: Iterable[Label | str],
        remove_all: bool,
    ) -> LabelSet:
        """The ambient labels ±add/remove, with the privilege checks (§4.3)."""
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

        return ambient.difference(remove_set).union(add_set)

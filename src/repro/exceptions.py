"""Exception hierarchy for the SafeWeb reproduction.

Every error raised by the middleware derives from :class:`SafeWebError` so
applications can install a single handler at a component boundary. The
security-relevant subclasses mirror the enforcement points of the paper:
label checks at the event broker, publish-time declassification checks in
the event-processing engine, isolation violations inside the IFC jail, and
response-time label validation in the web frontend.
"""

from __future__ import annotations


class SafeWebError(Exception):
    """Base class for all errors raised by the middleware."""


class LabelError(SafeWebError):
    """A malformed label or an invalid label operation."""


class PolicyError(SafeWebError):
    """A malformed policy document or an inconsistent privilege grant."""


class SecurityViolation(SafeWebError):
    """Base class for denied information flows.

    Raising (rather than silently dropping) is the frontend behaviour: the
    paper aborts response generation and displays an error message. The
    broker, by contrast, silently filters events a subscriber is not
    cleared for; it never raises this class during matching.
    """


class ClearanceError(SecurityViolation):
    """A principal attempted to read data above its clearance."""


class DeclassificationError(SecurityViolation):
    """A principal attempted to remove a label without the privilege."""


class EndorsementError(SecurityViolation):
    """A principal attempted to add an integrity label without the privilege."""


class DisclosureError(SecurityViolation):
    """The web frontend blocked a response whose labels exceed the user's
    privileges — the paper's "safety net" firing (§4.4, step 4)."""

    def __init__(self, message: str, missing_labels=frozenset()):
        super().__init__(message)
        #: Labels present on the response that the user lacks privileges for.
        self.missing_labels = frozenset(missing_labels)


class IsolationError(SecurityViolation):
    """A jailed unit callback attempted a forbidden operation (I/O, global
    state mutation) — the analogue of a Ruby ``$SAFE=4`` SecurityError."""


class IntegrityError(SecurityViolation):
    """Low-integrity data attempted to enter a component that requires an
    integrity label the data does not carry."""


class ReadOnlyError(SafeWebError):
    """A write was attempted on a read-only database replica (requirement S1)."""


class ReplicationError(SafeWebError):
    """Push replication failed or was attempted against the firewall direction."""


class WalError(SafeWebError):
    """The durability layer refused an operation.

    Raised when a write-ahead log is opened against a mismatched store
    shape, or after the log entered the failed state (an append or fsync
    raised): once the on-disk tail can no longer be trusted to contain
    every acknowledged write, further writes are refused rather than
    risking an acknowledged-write gap in the recovered prefix (the
    PostgreSQL fsync-panic posture; see ``docs/DURABILITY.md``)."""


class CircuitOpenError(SafeWebError):
    """An operation was rejected fast because its circuit breaker is open.

    Raised instead of attempting a call against a backend that has been
    failing: the caller sheds load immediately (and, under supervision,
    dead-letters the event) rather than stalling the pipeline on a sick
    dependency. See ``docs/ROBUSTNESS.md``."""

    def __init__(self, message: str, breaker: str = ""):
        super().__init__(message)
        self.breaker = breaker


class FirewallError(SafeWebError):
    """A connection was attempted against the permitted zone direction."""


class DocumentConflict(SafeWebError):
    """An MVCC revision conflict in the document store."""

    def __init__(self, message: str, doc_id: str = "", current_rev: str = ""):
        super().__init__(message)
        self.doc_id = doc_id
        self.current_rev = current_rev


class DocumentNotFound(SafeWebError):
    """A document id (or view key) did not resolve in the document store."""


class SelectorSyntaxError(SafeWebError):
    """A malformed SQL-92 subscription selector."""


class StompProtocolError(SafeWebError):
    """A malformed STOMP frame or an illegal protocol state transition."""


class AuthenticationError(SafeWebError):
    """HTTP request authentication failed."""


class HaltRequest(SafeWebError):
    """Internal control-flow signal used by the web framework's ``halt``.

    Mirrors Sinatra's ``halt``: immediately stops route processing and
    returns the attached response.
    """

    def __init__(self, status: int = 500, body: str = "", headers=None):
        super().__init__(f"halt {status}")
        self.status = status
        self.body = body
        self.headers = dict(headers or {})

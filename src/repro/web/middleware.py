"""The SafeWeb web middleware: the frontend "safety net" (paper §4.4).

Installed onto a :class:`~repro.web.framework.SafeWebApp`, it adds the
two enforcement hooks of Figure 3:

* **before** every route (steps 1): authenticate the request via HTTP
  Basic and attach the user's privileges from the web database;
* **after** every route (step 4): compare the response's labels with the
  user's privileges — *unless the user has the required privileges, the
  operation is aborted* — and, for HTML responses, reject unsanitised
  user input (the XSS taint check).

Timing of each enforcement component is recorded into
``request.env["safeweb.timings"]`` so the Figure 5 breakdown benchmark
can read real measurements rather than re-instrumenting the code.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import LabelSet
from repro.exceptions import DisclosureError
from repro.taint.sanitize import SanitisationError
from repro.web.auth import BasicAuthenticator
from repro.web.framework import SafeWebApp
from repro.web.request import Request
from repro.web.response import Response

TIMINGS_KEY = "safeweb.timings"


def record_timing(request: Request, component: str, seconds: float) -> None:
    """Accumulate a per-request component timing (Figure 5 support)."""
    timings = request.env.setdefault(TIMINGS_KEY, {})
    timings[component] = timings.get(component, 0.0) + seconds


class timed:  # noqa: N801 - context-manager idiom, reads like a function
    """``with timed(request, "template_rendering"): …`` timing helper."""

    __slots__ = ("_request", "_component", "_started")

    def __init__(self, request: Request, component: str):
        self._request = request
        self._component = component

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        record_timing(self._request, self._component, time.perf_counter() - self._started)


class SafeWebMiddleware:
    """Authentication + response-time label validation."""

    def __init__(
        self,
        authenticator: BasicAuthenticator,
        audit: Optional[AuditLog] = None,
        public_paths: Iterable[str] = (),
        check_labels: bool = True,
        check_taint: bool = True,
    ):
        self._authenticator = authenticator
        self._audit = audit if audit is not None else default_audit_log()
        self._public_paths = set(public_paths)
        self.check_labels = check_labels
        self.check_taint = check_taint

    # -- installation --------------------------------------------------------

    def install(self, app: SafeWebApp) -> SafeWebApp:
        app.before(self.authenticate_request)
        app.after(self.check_response)
        return app

    # -- the before hook (Figure 3, step 1) --------------------------------------

    def authenticate_request(self, request: Request) -> None:
        if request.path in self._public_paths:
            return
        if request.user is not None:
            # An earlier authentication layer (e.g. cookie sessions)
            # already resolved the principal with its privileges.
            return
        started = time.perf_counter()
        row = self._authenticator.verify(request.header("authorization"))
        record_timing(request, "authentication", time.perf_counter() - started)

        started = time.perf_counter()
        request.user = self._authenticator.fetch_privileges(row)
        record_timing(request, "privilege_fetching", time.perf_counter() - started)
        self._audit.allowed("frontend", "authenticate", request.user.name)

    # -- the after hook (Figure 3, step 4) -----------------------------------------

    def check_response(self, request: Request, response: Response) -> Optional[Response]:
        # Public paths skip *authentication*, never the response checks:
        # a route marked public by mistake (the "missing after-hook"
        # bug shape) must still be unable to emit labelled data —
        # with no principal attached, any confidentiality label denies.
        started = time.perf_counter()
        try:
            if self.check_labels:
                self._check_labels(request, response)
            if self.check_taint:
                self._check_taint(request, response)
        finally:
            record_timing(request, "label_check", time.perf_counter() - started)
        return None

    def _check_labels(self, request: Request, response: Response) -> None:
        labels = response.labels
        # Interned lattice: the confidentiality partition is a
        # precomputed frozenset, so the common all-public response
        # exits on a single attribute read.
        if not labels.confidentiality:
            return
        principal = request.user
        if principal is None:
            self._audit.denied(
                "frontend",
                "respond",
                "anonymous",
                labels=labels,
                detail=f"{request.method} {request.path}: labelled data, no principal",
            )
            raise DisclosureError(
                "labelled response with no authenticated principal",
                missing_labels=labels.confidentiality,
            )
        # Fast path: clearance decisions are memoized per (labels,
        # privilege-set) — with the cached authenticator the privilege
        # set instance persists across requests, so repeat page loads
        # resolve the whole check on one dictionary hit.
        privileges = principal.privileges
        if privileges.clearance_covers(labels):
            self._audit.allowed("frontend", "respond", principal.name, labels=labels)
            return
        missing = privileges.missing_clearance(labels)
        self._audit.denied(
            "frontend",
            "respond",
            principal.name,
            labels=LabelSet(missing),
            detail=f"{request.method} {request.path}",
        )
        raise DisclosureError(
            f"user {principal.name!r} lacks privileges for "
            f"{sorted(label.uri for label in missing)}",
            missing_labels=missing,
        )

    def _check_taint(self, request: Request, response: Response) -> None:
        if not response.content_type.startswith("text/html"):
            return
        if response.user_tainted:
            principal = request.user.name if request.user else "anonymous"
            self._audit.denied(
                "frontend",
                "respond",
                principal,
                detail=f"{request.method} {request.path}: unsanitised user input in HTML",
            )
            raise SanitisationError(
                "unsanitised user input reached an HTML response"
            )

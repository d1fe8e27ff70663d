"""Clearance-keyed response cache for the web frontend.

The expensive part of an authenticated page is generation: view reads,
template rendering and the label fold. But a generated page is a pure
function of ``(route, params, application-database state)``, and the
*decision* to release it to a principal is a pure function of the page's
label set and the principal's privileges — both already memoized. So the
cache stores finished pages under ``(route pattern, params)`` together
with the label set the enforcement hook computed for them, and serves a
hit to any principal whose privileges **dominate** that label set (the
same ``clearance_covers`` decision the after-hook would have made on the
freshly generated page; "Precise, Dynamic Information Flow for
Database-Backed Applications" motivates caching policy decisions across
the request/storage boundary like this).

Safety invariants, each pinned by tests:

* **No privilege amplification.** A hit is released only after
  ``privileges.clearance_covers(labels)`` for the *current* principal.
  Privileges are re-resolved per request and grant/revoke bumps the web
  database generation, so a principal whose clearance was revoked misses
  the dominance check, the route regenerates the page, and the after-hook
  raises :class:`~repro.exceptions.DisclosureError` exactly as without
  the cache (the stale-cache scenario in ``tests/property/test_router.py``).
* **No stale pages.** The cache subscribes to the application document
  store's changes feed (:meth:`attach_store`); any committed batch clears
  the cache and bumps an epoch. Requests remember the epoch they looked
  up under and the store hook discards results computed against a
  superseded epoch, closing the read-render-store race.
* **No taint laundering.** Responses carrying user taint, non-200
  statuses, non-GET methods and byte bodies are never cached.
* **Per-user pages stay per-user.** Routes whose content depends on the
  principal beyond the label check (the MDT front page) register with
  ``vary_user=True``; their entries additionally match on the username.

A hit is released as the page's text carrying the label set it was
generated with, so the SafeWeb middleware's after-hook makes (and
audits) the release decision for a hit exactly as for a fresh page:
the response label set and the audit trail are observation-equivalent.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import HaltRequest
from repro.core.labels import LabelSet
from repro.taint import strip_labels, with_labels
from repro.telemetry import Counters
from repro.web.framework import ROUTE_ENV_KEY, SafeWebApp
from repro.web.request import Request
from repro.web.response import Response

#: ``request.env`` markers (read by tests and the Figure 5 breakdown).
CACHE_ENV_KEY = "safeweb.page_cache"
_EPOCH_ENV_KEY = "safeweb.page_cache.epoch"
_KEY_ENV_KEY = "safeweb.page_cache.key"


class _Entry:
    __slots__ = ("status", "headers", "body", "labels", "user")

    def __init__(
        self,
        status: int,
        headers: Dict[str, str],
        body: str,
        labels: LabelSet,
        user: Optional[str],
    ):
        self.status = status
        self.headers = headers
        self.body = body
        self.labels = labels
        self.user = user  # None unless the route is vary_user


class PageCache(Counters):
    """Route-scoped page cache with clearance-dominance release checks."""

    #: Bound on cached pages; overflow clears wholesale (entries are
    #: cheap to regenerate and an invalidation empties the cache anyway).
    MAX_ENTRIES = 512

    NAMES = ("hits", "misses", "stores", "invalidations")

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self._routes: Dict[str, bool] = {}  # pattern -> vary_user
        self._entries: Dict[
            Tuple[str, Tuple[Tuple[str, str], ...], Optional[str]], _Entry
        ] = {}
        self._epoch = 0

    # -- configuration -----------------------------------------------------

    def cacheable(self, pattern: str, vary_user: bool = False) -> None:
        """Opt route *pattern* into caching.

        ``vary_user=True`` keys entries on the authenticated username as
        well — required when the handler reads ``request.user`` for
        anything beyond enforcement (e.g. the front page's "my MDT").
        """
        self._routes[pattern] = vary_user

    def install(self, app: SafeWebApp) -> SafeWebApp:
        """Register the lookup/store hooks.

        Must run *after* :meth:`SafeWebMiddleware.install` so the lookup
        sees the authenticated principal and the store hook runs after
        the label check has passed (a failed check aborts the after
        chain before the store hook).
        """
        app.before(self.lookup)
        app.after(self.store)
        return app

    def attach_store(self, database: Any) -> None:
        """Invalidate on every committed batch of *database*'s changes feed."""
        database.add_change_listener(self._on_changes)

    def _on_changes(self, changes) -> None:
        counts = self.cell()  # registers outside PageCache._lock
        with self._lock:
            self._epoch += 1
            if self._entries:
                self._entries.clear()
                counts.invalidations += 1

    # -- the hooks ---------------------------------------------------------

    def _key(
        self, request: Request, vary_user: bool
    ) -> Tuple[str, Tuple[Tuple[str, str], ...], Optional[str]]:
        pattern = request.env[ROUTE_ENV_KEY]
        params = tuple(
            sorted((str(key), str(value)) for key, value in request.params.items())
        )
        user = request.user.name if vary_user and request.user else None
        return (pattern, params, user)

    def lookup(self, request: Request) -> None:
        if request.method != "GET":
            return
        vary_user = self._routes.get(request.env.get(ROUTE_ENV_KEY))
        if vary_user is None:
            return
        key = self._key(request, vary_user)
        with self._lock:
            entry = self._entries.get(key)
            epoch = self._epoch
        request.env[_EPOCH_ENV_KEY] = epoch
        request.env[_KEY_ENV_KEY] = key
        user = request.user
        if entry is None or (vary_user and user is None):
            self.cell().misses += 1
            request.env[CACHE_ENV_KEY] = "miss"
            return
        if entry.labels.confidentiality and (
            user is None or not user.privileges.clearance_covers(entry.labels)
        ):
            # Not dominant: regenerate, and let the after-hook make
            # (and audit) the denial exactly as the fresh path would.
            self.cell().misses += 1
            request.env[CACHE_ENV_KEY] = "miss"
            return
        self.cell().hits += 1
        request.env[CACHE_ENV_KEY] = "hit"
        raise HaltRequest(entry.status, entry.body, dict(entry.headers))

    def store(self, request: Request, response: Response) -> Optional[Response]:
        if request.method != "GET" or request.env.get(CACHE_ENV_KEY) != "miss":
            return None
        vary_user = self._routes.get(request.env.get(ROUTE_ENV_KEY))
        if vary_user is None or response.status != 200:
            return None
        if isinstance(response.body, (bytes, bytearray)) or response.user_tainted:
            return None
        labels = response.labels
        entry = _Entry(
            status=response.status,
            headers={
                name: value
                for name, value in response.headers.items()
                if name.lower() != "content-length"
            },
            body=with_labels(str(strip_labels(response.body_text())), labels),
            labels=labels,
            user=request.user.name if vary_user and request.user else None,
        )
        key = request.env.get(_KEY_ENV_KEY)
        counts = self.cell()  # registers outside PageCache._lock
        with self._lock:
            if request.env.get(_EPOCH_ENV_KEY) != self._epoch:
                return None  # the store changed while this page rendered
            if len(self._entries) >= self.MAX_ENTRIES:
                self._entries.clear()
            self._entries[key] = entry
            counts.stores += 1
        return None

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), **self.snapshot()}

"""A Sinatra-like web framework (the paper's frontend substrate).

SafeWeb uses Sinatra "for its well-defined interception points of HTTP
requests and responses" (§4.4). This framework reproduces those points:

* routes declared with ``@app.get("/records/:mid")`` etc., captures
  exposed through ``request.params`` (user-tainted);
* ``before`` filters running ahead of every route (where the SafeWeb
  middleware authenticates and attaches privileges);
* ``after`` filters running on every response (where the label check
  happens);
* ``halt(status, body)`` for immediate termination, mirroring Sinatra.

The app is a plain callable ``Request -> Response`` so it runs equally
under the bundled HTTP server, the in-process test client and the
benchmarks.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import (
    AuthenticationError,
    DisclosureError,
    HaltRequest,
    SafeWebError,
)
from repro.taint.sanitize import SanitisationError
from repro.web.request import Request
from repro.web.response import Response
from repro.web.routing import TrieRouter, _PARAM_RE

#: ``request.env`` key carrying the matched route's pattern (read by the
#: page cache to key entries on the route rather than the raw path).
ROUTE_ENV_KEY = "safeweb.route"


def halt(status: int = 500, body: str = "", headers: Optional[Dict[str, str]] = None):
    """Immediately stop route processing (Sinatra's ``halt``)."""
    raise HaltRequest(status, body, headers)


def _compile_route(pattern: str) -> re.Pattern:
    if not pattern.startswith("/"):
        raise SafeWebError(f"route pattern must start with '/': {pattern!r}")
    regex = ""
    position = 0
    for match in _PARAM_RE.finditer(pattern):
        regex += re.escape(pattern[position : match.start()])
        regex += f"(?P<{match.group(1)}>[^/]+)"
        position = match.end()
    regex += re.escape(pattern[position:])
    if regex.endswith(re.escape("/*")):
        regex = regex[: -len(re.escape("/*"))] + "(?P<splat>/.*)?"
    return re.compile(f"^{regex}$")


class Route:
    __slots__ = ("method", "pattern", "regex", "handler")

    def __init__(self, method: str, pattern: str, handler: Callable):
        self.method = method
        self.pattern = pattern
        self.regex = _compile_route(pattern)
        self.handler = handler

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        if method != self.method:
            return None
        found = self.regex.match(path)
        if found is None:
            return None
        return {k: v for k, v in found.groupdict().items() if v is not None}


class SafeWebApp:
    """Route table + filter chain; instances are WSGI-free callables.

    Dispatch runs on a :class:`~repro.web.routing.TrieRouter` compiled
    lazily from the route table (and invalidated by further route
    registration); the seed linear regex scan is preserved as
    :meth:`match_reference` and stays property-tested equivalent. Set
    ``compiled_router=False`` to dispatch through the reference matcher
    (the property suite's seed-pipeline world).
    """

    def __init__(self, name: str = "safeweb-app", compiled_router: bool = True):
        self.name = name
        self.compiled_router = compiled_router
        self._routes: List[Route] = []
        self._trie: Optional[TrieRouter] = None
        self._before: List[Callable[[Request], None]] = []
        self._after: List[Callable[[Request, Response], Optional[Response]]] = []
        self._error_handlers: Dict[type, Callable] = {}

    # -- declaration -------------------------------------------------------------

    def route(self, method: str, pattern: str):
        def decorator(handler: Callable):
            self._routes.append(Route(method.upper(), pattern, handler))
            self._trie = None  # recompiled lazily on next dispatch
            return handler

        return decorator

    def get(self, pattern: str):
        return self.route("GET", pattern)

    def post(self, pattern: str):
        return self.route("POST", pattern)

    def put(self, pattern: str):
        return self.route("PUT", pattern)

    def delete(self, pattern: str):
        return self.route("DELETE", pattern)

    def before(self, func: Callable[[Request], None]):
        """Register a filter to run before every route."""
        self._before.append(func)
        return func

    def after(self, func: Callable[[Request, Response], Optional[Response]]):
        """Register a filter to run on every response."""
        self._after.append(func)
        return func

    def error(self, exception_type: type):
        """Register a handler for an exception class."""

        def decorator(func: Callable):
            self._error_handlers[exception_type] = func
            return func

        return decorator

    # -- matching -----------------------------------------------------------------

    def match_reference(
        self, method: str, path: str
    ) -> Optional[Tuple["Route", Dict[str, str]]]:
        """The seed matcher: linear scan, one regex per route.

        Kept as the executable specification the trie is property-tested
        against (``tests/property/test_router.py``).
        """
        for route in self._routes:
            captures = route.match(method, path)
            if captures is not None:
                return route, captures
        return None

    def _compiled(self) -> TrieRouter:
        trie = self._trie
        if trie is None:
            trie = TrieRouter()
            for order, route in enumerate(self._routes):
                trie.add(route.method, route.pattern, route, order)
            self._trie = trie
        return trie

    def match(self, method: str, path: str) -> Optional[Tuple["Route", Dict[str, str]]]:
        if self.compiled_router:
            return self._compiled().match(method, path)
        return self.match_reference(method, path)

    # -- dispatch -----------------------------------------------------------------

    def __call__(self, request: Request) -> Response:
        try:
            response = self._dispatch(request)
        except HaltRequest as h:
            response = Response(body=h.body, status=h.status, headers=h.headers)
        except Exception as error:  # noqa: BLE001 - converted to HTTP errors below
            response = self._handle_error(request, error)
        return self._apply_after(request, response)

    def _dispatch(self, request: Request) -> Response:
        found = self.match(request.method, request.path)
        if found is None and request.method == "HEAD":
            # HEAD falls back to the GET route (RFC 9110 §9.3.2); the
            # HTTP servers drop the body and keep the headers.
            found = self.match("GET", request.path)
        if found is None:
            return Response(body="not found", status=404, content_type="text/plain")
        route, captures = found
        request.env[ROUTE_ENV_KEY] = route.pattern
        request.add_route_params(captures)
        for filter_func in self._before:
            filter_func(request)
        result = route.handler(request)
        return Response.coerce(result)

    def _apply_after(self, request: Request, response: Response) -> Response:
        try:
            for filter_func in self._after:
                replacement = filter_func(request, response)
                if replacement is not None:
                    response = replacement
            return response
        except HaltRequest as h:
            return Response(body=h.body, status=h.status, headers=h.headers)
        except Exception as error:  # noqa: BLE001
            return self._handle_error(request, error)

    def _handle_error(self, request: Request, error: Exception) -> Response:
        for exception_type, handler in self._error_handlers.items():
            if isinstance(error, exception_type):
                return Response.coerce(handler(request, error))
        if isinstance(error, AuthenticationError):
            return Response(
                body="authentication required",
                status=401,
                headers={"WWW-Authenticate": 'Basic realm="SafeWeb"'},
                content_type="text/plain",
            )
        if isinstance(error, DisclosureError):
            # The paper's behaviour: the operation is aborted and an error
            # message displayed; no trace of the confidential data leaves.
            return Response(
                body="access denied: response would disclose confidential data",
                status=403,
                content_type="text/plain",
            )
        if isinstance(error, SanitisationError):
            return Response(
                body="rejected: unsanitised user input in response",
                status=400,
                content_type="text/plain",
            )
        return Response(
            body="internal server error",
            status=500,
            content_type="text/plain",
        )

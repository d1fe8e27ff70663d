"""The seed router: one regex per route, scanned in registration order.

:class:`repro.web.routing.TrieRouter`, and through it
``SafeWebApp.match``, is held to this matcher by
``tests/property/test_router.py``. Each route's regex is compiled here
from ``route.pattern``, independently of the trie's own pattern parser.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Optional, Tuple

from repro.web.framework import Route, SafeWebApp

_PARAM = re.compile(r":([A-Za-z_][A-Za-z0-9_]*)")


def compile_route(pattern: str) -> "re.Pattern[str]":
    """The seed translation: ``:name`` captures one segment, a trailing
    ``/*`` an optional ``splat`` holding the rest of the path."""
    regex = ""
    position = 0
    for match in _PARAM.finditer(pattern):
        regex += re.escape(pattern[position : match.start()])
        regex += f"(?P<{match.group(1)}>[^/]+)"
        position = match.end()
    regex += re.escape(pattern[position:])
    if regex.endswith(re.escape("/*")):
        regex = regex[: -len(re.escape("/*"))] + "(?P<splat>/.*)?"
    return re.compile(f"^{regex}$")


def route_match(route: Route, method: str, path: str) -> Optional[Dict[str, str]]:
    """The captures *route* takes from ``method path``, or None."""
    if method != route.method:
        return None
    found = compile_route(route.pattern).match(path)
    if found is None:
        return None
    return {k: v for k, v in found.groupdict().items() if v is not None}


def match_reference(
    routes: Iterable[Route], method: str, path: str
) -> Optional[Tuple[Route, Dict[str, str]]]:
    """The first route in *routes* that matches wins."""
    for route in routes:
        captures = route_match(route, method, path)
        if captures is not None:
            return route, captures
    return None


class LinearScanApp(SafeWebApp):
    """A :class:`SafeWebApp` that dispatches through the seed scan."""

    def match(self, method: str, path: str) -> Optional[Tuple[Route, Dict[str, str]]]:
        return match_reference(self._routes, method, path)

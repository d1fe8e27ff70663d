"""The seed router: one regex per route, scanned in registration order.

``SafeWebApp.match`` is held to this matcher by
``tests/property/test_router.py``. Each route's regex is compiled here
from ``route.pattern``, independently of ``Route``'s own translation.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Optional, Tuple

from repro.web.framework import Route

_PARAM = re.compile(r":([A-Za-z_][A-Za-z0-9_]*)")


def compile_route(pattern: str) -> "re.Pattern[str]":
    """The seed translation: ``:name`` captures one segment, a trailing
    ``/*`` an optional ``splat`` holding the rest of the path.

    Anchored with ``\\Z``, not ``$`` (which also accepts a trailing
    newline), and with ``.`` matching newlines, so a splat holds the
    whole rest of the path.
    """
    regex = ""
    position = 0
    for match in _PARAM.finditer(pattern):
        regex += re.escape(pattern[position : match.start()])
        regex += f"(?P<{match.group(1)}>[^/]+)"
        position = match.end()
    regex += re.escape(pattern[position:])
    if regex.endswith(re.escape("/*")):
        regex = regex[: -len(re.escape("/*"))] + "(?P<splat>/.*)?"
    return re.compile(f"^{regex}\\Z", re.DOTALL)


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

"""HTTP request model.

Every value that originates from the client — query parameters, form
fields, route captures, headers — is marked with the user-input taint bit
(:func:`repro.taint.mark_user_input`), the analogue of Ruby tainting
request data (§4.4 last paragraph). Application code must sanitise these
values before they reach HTML responses or SQL strings.
"""

from __future__ import annotations

import urllib.parse
from typing import Any, Dict, Optional, Union

from repro.core.principals import UserPrincipal
from repro.taint import mark_user_input


#: ``request.env`` key the HTTP server sets on requests that arrived over
#: TLS; the session layer reads it to mark its cookie ``Secure``.
TLS_ENV_KEY = "safeweb.tls"


def _parse_query(query: str) -> Dict[str, str]:
    parsed: Dict[str, str] = {}
    for key, value in urllib.parse.parse_qsl(query, keep_blank_values=True):
        parsed[key] = value
    return parsed


class Request:
    """One HTTP request as seen by route handlers."""

    def __init__(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: Union[str, bytes] = "",
        remote_addr: str = "127.0.0.1",
    ):
        self.method = method.upper()
        parsed = urllib.parse.urlsplit(path)
        self.path = parsed.path or "/"
        self.headers = {str(k).lower(): str(v) for k, v in (headers or {}).items()}
        # Bodies arrive from the socket as bytes and are decoded lazily:
        # a binary POST must not crash the server just because its
        # payload isn't UTF-8 (the handler may never look at it as text).
        if isinstance(body, (bytes, bytearray)):
            self.raw_body: bytes = bytes(body)
            self._body_text: Optional[str] = None
        else:
            self.raw_body = body.encode("utf-8")
            self._body_text = mark_user_input(body) if body else ""
        self.remote_addr = remote_addr

        #: Query-string parameters (user-tainted).
        self.query: Dict[str, str] = {
            key: mark_user_input(value) for key, value in _parse_query(parsed.query).items()
        }
        #: Route captures merged with query and form params (user-tainted);
        #: populated by the router.
        self.params: Dict[str, Any] = dict(self.query)
        if self.headers.get("content-type", "").startswith("application/x-www-form-urlencoded"):
            form_text = self.raw_body.decode("utf-8", "replace")
            for key, value in _parse_query(form_text).items():
                self.params[key] = mark_user_input(value)

        #: The authenticated principal; set by the SafeWeb middleware.
        self.user: Optional[UserPrincipal] = None
        #: Scratch space for filters/handlers (Sinatra's @variables).
        self.env: Dict[str, Any] = {}

    @property
    def body(self) -> str:
        """The body as user-tainted text (decoded on first access)."""
        if self._body_text is None:
            decoded = self.raw_body.decode("utf-8", "replace")
            self._body_text = mark_user_input(decoded) if decoded else ""
        return self._body_text

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)

    def add_route_params(self, captures: Dict[str, str]) -> None:
        for key, value in captures.items():
            self.params[key] = mark_user_input(urllib.parse.unquote(value))

    @property
    def is_json(self) -> bool:
        return self.headers.get("content-type", "").startswith("application/json")

    def __repr__(self) -> str:
        return f"Request({self.method} {self.path})"

"""HTTP response model.

The body may be (and for confidential data, is) a labeled string; the
SafeWeb middleware reads :func:`repro.taint.labels_of` on it at the
response boundary. ``finalize`` is only called after that check passed,
which is the single place labels are stripped for the wire.
"""

from __future__ import annotations

from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple

from repro.core.labels import LabelSet
from repro.taint import labels_of, strip_labels
from repro.taint.labeled import is_user_tainted

_REASONS = {status.value: status.phrase for status in HTTPStatus}


class Response:
    """A mutable response under construction."""

    def __init__(
        self,
        body: Any = "",
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
        content_type: Optional[str] = None,
    ):
        self.status = status
        self.headers: Dict[str, str] = dict(headers or {})
        self.body = body
        if content_type is not None:
            self.headers["Content-Type"] = content_type
        self.headers.setdefault("Content-Type", "text/html; charset=utf-8")

    # -- introspection used by the middleware --------------------------------

    @property
    def labels(self) -> LabelSet:
        """The labels carried by the body (containers combined)."""
        return labels_of(self.body)

    @property
    def user_tainted(self) -> bool:
        return is_user_tainted(self.body)

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "")

    # -- serialisation ----------------------------------------------------------

    @property
    def reason(self) -> str:
        return _REASONS.get(self.status, "Unknown")

    def body_text(self) -> str:
        if isinstance(self.body, bytes):
            return self.body.decode("utf-8", "replace")
        return "" if self.body is None else str(self.body)

    def finalize(self) -> Tuple[int, Dict[str, str], bytes]:
        """Strip labels and encode for the wire (post-check only)."""
        if isinstance(self.body, (bytes, bytearray)):
            # Byte bodies carry no labels and must reach the wire
            # unmangled (a UTF-8 round-trip would corrupt binary data).
            payload = bytes(self.body)
        else:
            text = strip_labels(self.body_text())
            payload = str(text).encode("utf-8")
        headers = dict(self.headers)
        headers["Content-Length"] = str(len(payload))
        return self.status, headers, payload

    @classmethod
    def coerce(cls, value: Any) -> "Response":
        """Normalise handler return values (Sinatra-style flexibility)."""
        if isinstance(value, Response):
            return value
        if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], int):
            return cls(body=value[1], status=value[0])
        if isinstance(value, tuple) and len(value) == 3 and isinstance(value[0], int):
            return cls(body=value[2], status=value[0], headers=value[1])
        if value is None:
            return cls(body="", status=204)
        return cls(body=value)

    def __repr__(self) -> str:
        return f"Response({self.status}, {self.content_type!r}, {len(self.body_text())} chars)"

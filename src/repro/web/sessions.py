"""Cookie sessions and CSRF protection.

The paper's frontend uses HTTP Basic over TLS and stores "session and
usage data" in the web database, and it notes that applications still
benefit from classic framework defences (Rack::Csrf) alongside IFC.
This module supplies both pieces:

* :class:`SessionMiddleware` — cookie-backed sessions resolved through
  the web database (the ``sessions`` table), as an alternative
  authentication path to HTTP Basic: a ``POST /login`` issues the
  cookie, subsequent requests carry it, and the SafeWeb privilege fetch
  works exactly as for Basic auth;
* CSRF double-submit protection for state-changing methods, mirroring
  ``Rack::Csrf``: a per-session token must accompany POST/PUT/DELETE.

IFC remains the disclosure defence; these are the orthogonal
framework-level protections the paper assumes remain in place (§6).
"""

from __future__ import annotations

import hmac
import secrets
from typing import Optional

from repro.core.audit import AuditLog, default_audit_log
from repro.exceptions import AuthenticationError, HaltRequest
from repro.storage.webdb import WebDatabase
from repro.web.auth import BasicAuthenticator
from repro.web.framework import SafeWebApp
from repro.web.request import TLS_ENV_KEY, Request
from repro.web.response import Response

SESSION_COOKIE = "safeweb_session"
CSRF_HEADER = "x-csrf-token"
CSRF_FIELD = "csrf_token"

_UNSAFE_METHODS = frozenset({"POST", "PUT", "DELETE"})


def parse_cookies(header: Optional[str]) -> dict:
    cookies = {}
    for part in (header or "").split(";"):
        name, _eq, value = part.strip().partition("=")
        if name and _eq:
            cookies[name] = value
    return cookies


#: Web-database config key the deployment's CSRF signing key persists
#: under (hex-encoded), so replicas sharing the database validate each
#: other's tokens while distinct deployments never do.
CSRF_KEY_CONFIG = "csrf_signing_key"


def csrf_token_for(session_token: str, key: bytes) -> str:
    """Derive the CSRF token from the session (double-submit pattern).

    *key* is the deployment's random signing key — never a constant: a
    key shared across deployments would let a token minted on any
    instance forge state-changing requests on every other.
    """
    digest = hmac.new(key, session_token.encode(), "sha256")
    return digest.hexdigest()


def _resolve_csrf_key(webdb: WebDatabase, csrf_key: Optional[bytes]) -> bytes:
    """Constructor-injected key, else the webdb-persisted one, else fresh."""
    if csrf_key is not None:
        return csrf_key
    generated = secrets.token_bytes(32)
    return bytes.fromhex(webdb.config_setdefault(CSRF_KEY_CONFIG, generated.hex()))


class SessionMiddleware:
    """Login-form sessions + CSRF, layered under the SafeWeb middleware.

    Install order matters: this runs *before* the SafeWeb middleware's
    auth hook so a valid session cookie satisfies authentication without
    an ``Authorization`` header; the label check at the response boundary
    is untouched. Sessions live in the web database; credentials and
    principals come from the *authenticator* the SafeWeb middleware's
    Basic hook uses, so there is one path from a request to a principal
    with privileges (Figure 3, step 1) whichever way the request
    identified itself.
    """

    def __init__(
        self,
        webdb: WebDatabase,
        authenticator: BasicAuthenticator,
        audit: Optional[AuditLog] = None,
        csrf_protect: bool = True,
        csrf_key: Optional[bytes] = None,
    ):
        self._webdb = webdb
        self._authenticator = authenticator
        #: Per-deployment CSRF signing key; persisted in the web database
        #: so replicas (and a restarted deployment) agree.
        self.csrf_key = _resolve_csrf_key(webdb, csrf_key)
        self._audit = audit if audit is not None else default_audit_log()
        self._csrf_protect = csrf_protect

    # -- installation ----------------------------------------------------------

    def install(self, app: SafeWebApp) -> SafeWebApp:
        app.before(self.resolve_session)
        app.before(self.check_csrf)
        self.register_routes(app)
        return app

    def register_routes(self, app: SafeWebApp) -> None:
        @app.post("/login")
        def login(request: Request):
            username = str(request.params.get("username", ""))
            password = str(request.params.get("password", ""))
            try:
                row = self._authenticator.verify_credentials(username, password)
            except AuthenticationError:
                self._audit.denied("frontend", "login", username or "?")
                raise
            # A login never leaves the session it was presented with
            # alive: a fixated or stolen cookie dies with the re-login.
            presented = self._presented_token(request)
            if presented:
                self._webdb.delete_session(presented)
            token = self._webdb.create_session(row["id"])
            self._audit.allowed("frontend", "login", username)
            response = Response(
                csrf_token_for(token, self.csrf_key),
                status=201,
                content_type="text/plain",
            )
            cookie = f"{SESSION_COOKIE}={token}; HttpOnly; SameSite=Strict; Path=/"
            if request.env.get(TLS_ENV_KEY):
                # Issued over TLS: the browser must never replay it on a
                # plaintext hop where it could be read off the wire.
                cookie += "; Secure"
            response.headers["Set-Cookie"] = cookie
            return response

        @app.post("/logout")
        def logout(request: Request):
            token = request.env.get("safeweb.session_token")
            if token:
                self._webdb.delete_session(token)
            response = Response("", status=204)
            response.headers["Set-Cookie"] = (
                f"{SESSION_COOKIE}=; Max-Age=0; Path=/"
            )
            return response

    # -- the hooks ----------------------------------------------------------------

    @staticmethod
    def _presented_token(request: Request) -> Optional[str]:
        return parse_cookies(request.header("cookie")).get(SESSION_COOKIE)

    def resolve_session(self, request: Request) -> None:
        if request.user is not None or request.path == "/login":
            return
        token = self._presented_token(request)
        if not token:
            return
        user_id = self._webdb.session_user(token)
        if user_id is None:
            return
        row = self._webdb.user_row(user_id)
        request.user = self._authenticator.fetch_privileges(row)
        request.env["safeweb.session_token"] = token
        self._audit.allowed("frontend", "session", request.user.name)

    def check_csrf(self, request: Request) -> None:
        if not self._csrf_protect or request.method not in _UNSAFE_METHODS:
            return
        token = request.env.get("safeweb.session_token")
        if token is None:
            return  # not session-authenticated (e.g. Basic): CSRF-immune
        presented = request.header(CSRF_HEADER) or str(
            request.params.get(CSRF_FIELD, "")
        )
        if not presented or not hmac.compare_digest(
            str(presented), csrf_token_for(token, self.csrf_key)
        ):
            principal = request.user.name if request.user else "?"
            self._audit.denied(
                "frontend", "csrf", principal, detail=f"{request.method} {request.path}"
            )
            raise HaltRequest(403, "missing or invalid CSRF token")

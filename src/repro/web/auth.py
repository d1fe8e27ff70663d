"""HTTP Basic authentication against the web database (paper §5.1).

"Currently, the web frontend uses HTTP basic authentication and TLS" —
credentials arrive base64-encoded in the ``Authorization`` header, are
verified against the web database, and resolve to a
:class:`~repro.core.principals.UserPrincipal` carrying the user's label
privileges (fetched in the same step — Figure 3, step 1).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import hmac
import threading
from typing import Dict, Optional, Tuple

from repro.core.principals import UserPrincipal
from repro.exceptions import AuthenticationError
from repro.storage.webdb import WebDatabase


def parse_basic_header(header: Optional[str]) -> Tuple[str, str]:
    """Extract (username, password) from an ``Authorization`` header."""
    if not header:
        raise AuthenticationError("missing Authorization header")
    scheme, _space, payload = header.partition(" ")
    if scheme.lower() != "basic" or not payload:
        raise AuthenticationError(f"unsupported authentication scheme {scheme!r}")
    try:
        decoded = base64.b64decode(payload.strip(), validate=True).decode("utf-8")
    except (binascii.Error, UnicodeDecodeError) as error:
        raise AuthenticationError("malformed Basic credentials") from error
    username, colon, password = decoded.partition(":")
    if not colon:
        raise AuthenticationError("malformed Basic credentials (no colon)")
    return username, password


def encode_basic(username: str, password: str) -> str:
    """Build an ``Authorization`` header value (client side / tests)."""
    token = base64.b64encode(f"{username}:{password}".encode()).decode("ascii")
    return f"Basic {token}"


class BasicAuthenticator:
    """Resolves requests to principals via the web database."""

    def __init__(self, webdb: WebDatabase):
        self._webdb = webdb

    def authenticate(self, authorization_header: Optional[str]) -> UserPrincipal:
        """Verify credentials and return the principal with privileges.

        The username lookup is exact (case-sensitive).
        """
        row = self.verify(authorization_header)
        return self.fetch_privileges(row)

    def verify(self, authorization_header: Optional[str]) -> dict:
        """Step 1 of Figure 3: credential verification only.

        Split from privilege fetching so the Figure 5 breakdown can time
        the two components separately (87 ms vs 3 ms in the paper).
        """
        username, password = parse_basic_header(authorization_header)
        return self.verify_credentials(username, password)

    def verify_credentials(self, username: str, password: str) -> dict:
        """Resolve and check one parsed credential pair against ``webdb``."""
        user_id = self._webdb.user_id(username)
        if user_id is None:
            raise AuthenticationError(f"unknown user {username!r}")
        row = self._webdb.user_row(user_id)
        if not self._webdb.check_password(row["name"], password):
            raise AuthenticationError("bad credentials")
        return row

    def fetch_privileges(self, row: dict) -> UserPrincipal:
        """Step 1 of Figure 3, second half: attach the user's privileges."""
        principal = self._webdb.principal_for(row["name"])
        if principal is None:  # pragma: no cover - row existed a moment ago
            raise AuthenticationError(f"unknown user {row['name']!r}")
        return principal


class CachingAuthenticator(BasicAuthenticator):
    """The cached enforcement fast path for the before-hook (Figure 3 step 1).

    The seed authenticator hits ``webdb`` twice per request: a PBKDF2
    password verification (the paper's dominant 87 ms Figure 5
    component) and a privilege fetch. Both results are pure functions of
    ``(username, WebDatabase.generation)`` — the web database bumps its
    generation on every user/privilege mutation — so this subclass
    memoizes them with generation-based invalidation (the PR 1 pattern):

    * **credential cache** — after one successful PBKDF2 verification,
      later requests re-validate with a single SHA-256 over the stored
      salt and the presented password (compared in constant time), not
      the full iterated KDF. Plaintext passwords are never stored;
    * **principal cache** — the :class:`UserPrincipal` with its
      :class:`~repro.core.privileges.PrivilegeSet` is reused until the
      generation moves, so the after-hook's label check keeps hitting
      the *same* privilege set instance and rides its memoized
      clearance decisions.

    A grant or revoke bumps the generation, every cached entry misses,
    and the next request resolves fresh state — a revoked privilege can
    never authenticate or clear a label check from cache.
    """

    #: Bound on each cache; overflow clears wholesale (entries are cheap
    #: to rebuild and the working set is "active users", far below this).
    MAX_ENTRIES = 4096

    def __init__(self, webdb: WebDatabase):
        super().__init__(webdb)
        self._cache_lock = threading.Lock()
        #: username → (generation, sha256(salt || password), row)
        self._credentials: Dict[str, Tuple[int, bytes, dict]] = {}
        #: username → (generation, principal)
        self._principals: Dict[str, Tuple[int, UserPrincipal]] = {}
        self.credential_hits = 0
        self.credential_misses = 0
        self.principal_hits = 0
        self.principal_misses = 0

    @staticmethod
    def _token(salt: str, password: str) -> bytes:
        return hashlib.sha256(salt.encode() + password.encode()).digest()

    def verify(self, authorization_header: Optional[str]) -> dict:
        username, password = parse_basic_header(authorization_header)
        generation = self._webdb.generation
        with self._cache_lock:
            entry = self._credentials.get(username)
        if entry is not None and entry[0] == generation:
            cached_generation, token, row = entry
            if hmac.compare_digest(token, self._token(row["salt"], password)):
                self.credential_hits += 1
                return row
            # Same user, different password: fall through to the KDF so
            # a wrong guess costs exactly what it costs the seed path.
        self.credential_misses += 1
        row = super().verify_credentials(username, password)
        with self._cache_lock:
            if len(self._credentials) >= self.MAX_ENTRIES:
                self._credentials.clear()
            self._credentials[username] = (
                generation,
                self._token(row["salt"], password),
                row,
            )
        return row

    def fetch_privileges(self, row: dict) -> UserPrincipal:
        username = row["name"]
        generation = self._webdb.generation
        with self._cache_lock:
            entry = self._principals.get(username)
        if entry is not None and entry[0] == generation:
            self.principal_hits += 1
            return entry[1]
        self.principal_misses += 1
        principal = super().fetch_privileges(row)
        with self._cache_lock:
            if len(self._principals) >= self.MAX_ENTRIES:
                self._principals.clear()
            self._principals[username] = (generation, principal)
        return principal

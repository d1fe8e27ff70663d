"""The SQLite web database (paper §5.1, Figure 4, item 6).

Stores everything the web frontend needs that is *not* application data:
user accounts with their label privileges, the Listing-3-style access
control rows (``Privileges.count(:conditions => {:u_id, :hospital,
:clinic})``) and session state. Kept deliberately separate from the
application database so a compromise of web state cannot touch patient
records.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import sqlite3
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.principals import UserPrincipal
from repro.core.privileges import PRIVILEGE_KINDS, PrivilegeSet
from repro.exceptions import SafeWebError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS users (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    salt TEXT NOT NULL,
    digest TEXT NOT NULL,
    mdt TEXT,
    region TEXT,
    is_admin INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS label_privileges (
    id INTEGER PRIMARY KEY,
    u_id INTEGER NOT NULL REFERENCES users(id),
    kind TEXT NOT NULL,
    label TEXT NOT NULL,
    UNIQUE (u_id, kind, label)
);
CREATE TABLE IF NOT EXISTS acl_privileges (
    id INTEGER PRIMARY KEY,
    u_id INTEGER NOT NULL REFERENCES users(id),
    hospital TEXT NOT NULL,
    clinic TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sessions (
    token TEXT PRIMARY KEY,
    u_id INTEGER NOT NULL REFERENCES users(id),
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS config (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


#: PBKDF2 rounds for password storage. Real deployments use far more;
#: this default keeps verification around the cost profile of the
#: paper's HTTP Basic authentication (the dominant Figure 5 component)
#: without making the test suite crawl.
DEFAULT_PASSWORD_ITERATIONS = 20_000


def _digest(salt: str, password: str, iterations: int = DEFAULT_PASSWORD_ITERATIONS) -> str:
    derived = hashlib.pbkdf2_hmac(
        "sha256", password.encode(), salt.encode(), iterations
    )
    return f"pbkdf2${iterations}${derived.hex()}"


def _verify(salt: str, password: str, stored: str) -> bool:
    try:
        _scheme, iterations_text, _hex = stored.split("$", 2)
        iterations = int(iterations_text)
    except ValueError:
        return False
    return hmac.compare_digest(stored, _digest(salt, password, iterations))


class WebDatabase:
    """Thread-safe SQLite-backed store for users, privileges and sessions."""

    def __init__(self, path: str = ":memory:", password_iterations: int = DEFAULT_PASSWORD_ITERATIONS):
        self._lock = threading.RLock()
        self._password_iterations = password_iterations
        self._generation = 0
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        with self._lock:
            self._connection.executescript(_SCHEMA)
            self._connection.commit()

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every user/privilege mutation.

        The frontend's privilege-resolution cache
        (:class:`repro.web.auth.CachingAuthenticator`) keys entries on
        this value, the same generation-based invalidation the broker
        uses for :attr:`repro.core.privileges.PrivilegeSet.generation`:
        a grant or revoke makes every cached principal unreachable, so a
        revoked privilege can never be served from cache.
        """
        with self._lock:
            return self._generation

    def _bump_generation(self) -> None:
        """Callers must hold ``self._lock``."""
        self._generation += 1

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # -- users ---------------------------------------------------------------

    def add_user(
        self,
        name: str,
        password: str,
        mdt: Optional[str] = None,
        region: Optional[str] = None,
        is_admin: bool = False,
    ) -> int:
        salt = secrets.token_hex(8)
        digest = _digest(salt, password, self._password_iterations)
        with self._lock:
            cursor = self._connection.execute(
                "INSERT INTO users (name, salt, digest, mdt, region, is_admin) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (name, salt, digest, mdt, region, int(is_admin)),
            )
            self._bump_generation()
            self._connection.commit()
            return cursor.lastrowid

    def user_id(self, name: str) -> Optional[int]:
        """Case-*sensitive* lookup (SQLite ``=`` on TEXT is binary)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT id FROM users WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else row["id"]

    def check_password(self, name: str, password: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT salt, digest FROM users WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            return False
        return _verify(row["salt"], password, row["digest"])

    def user_row(self, user_id: int) -> Optional[Dict]:
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM users WHERE id = ?", (user_id,)
            ).fetchone()
        return None if row is None else dict(row)

    def has_users(self) -> bool:
        """True once any user account exists. A file-backed database
        reopened from disk already holds its workload's accounts; callers
        use this to skip re-provisioning (which would violate the UNIQUE
        username constraint)."""
        with self._lock:
            row = self._connection.execute("SELECT 1 FROM users LIMIT 1").fetchone()
        return row is not None

    def user_names(self) -> List[str]:
        with self._lock:
            rows = self._connection.execute("SELECT name FROM users ORDER BY name").fetchall()
        return [row["name"] for row in rows]

    # -- label privileges (IFC) -------------------------------------------------

    def grant_label_privilege(self, user_id: int, kind: str, label_uri: str) -> None:
        if kind not in PRIVILEGE_KINDS:
            raise SafeWebError(f"unknown privilege kind {kind!r}")
        with self._lock:
            self._connection.execute(
                "INSERT OR IGNORE INTO label_privileges (u_id, kind, label) VALUES (?, ?, ?)",
                (user_id, kind, label_uri),
            )
            self._bump_generation()
            self._connection.commit()

    def grant_label_privileges(
        self, user_id: int, grants: Iterable[Tuple[str, str]]
    ) -> None:
        """Batch grant of ``(kind, label_uri)`` pairs: one ``executemany``
        and one commit instead of a transaction per grant (provisioning a
        portal user touches dozens of clearance rows)."""
        rows = []
        for kind, label_uri in grants:
            if kind not in PRIVILEGE_KINDS:
                raise SafeWebError(f"unknown privilege kind {kind!r}")
            rows.append((user_id, kind, label_uri))
        if not rows:
            return
        with self._lock:
            self._connection.executemany(
                "INSERT OR IGNORE INTO label_privileges (u_id, kind, label) VALUES (?, ?, ?)",
                rows,
            )
            self._bump_generation()
            self._connection.commit()

    def revoke_label_privilege(self, user_id: int, kind: str, label_uri: str) -> None:
        with self._lock:
            self._connection.execute(
                "DELETE FROM label_privileges WHERE u_id = ? AND kind = ? AND label = ?",
                (user_id, kind, label_uri),
            )
            self._bump_generation()
            self._connection.commit()

    def privileges_for(self, user_id: int) -> PrivilegeSet:
        with self._lock:
            rows = self._connection.execute(
                "SELECT kind, label FROM label_privileges WHERE u_id = ?", (user_id,)
            ).fetchall()
        grants: Dict[str, List[str]] = {}
        for row in rows:
            grants.setdefault(row["kind"], []).append(row["label"])
        return PrivilegeSet(grants)

    def principal_for(self, name: str) -> Optional[UserPrincipal]:
        """Build a :class:`UserPrincipal` for an authenticated user.

        The principal carries the user's privileges, MDT and region, and
        no credential: the salt and digest stay in the ``users`` row.
        """
        user_id = self.user_id(name)
        if user_id is None:
            return None
        row = self.user_row(user_id)
        return UserPrincipal(
            name,
            privileges=self.privileges_for(user_id),
            mdt_id=row["mdt"],
            region=row["region"],
        )

    def is_admin(self, user_id: int) -> bool:
        row = self.user_row(user_id)
        return bool(row and row["is_admin"])

    # -- ACL rows (the Listing 3 check) --------------------------------------------

    def grant_acl(self, user_id: int, hospital: str, clinic: str) -> None:
        with self._lock:
            self._connection.execute(
                "INSERT INTO acl_privileges (u_id, hospital, clinic) VALUES (?, ?, ?)",
                (user_id, hospital, clinic),
            )
            self._bump_generation()
            self._connection.commit()

    def count_privileges(self, **conditions) -> int:
        """``Privileges.count(:conditions => {...})`` from Listing 3."""
        allowed = {"u_id", "hospital", "clinic"}
        unknown = set(conditions) - allowed
        if unknown:
            raise SafeWebError(f"unknown privilege columns {sorted(unknown)}")
        clause = " AND ".join(f"{column} = ?" for column in conditions)
        sql = "SELECT COUNT(*) AS n FROM acl_privileges"
        if clause:
            sql += f" WHERE {clause}"
        with self._lock:
            row = self._connection.execute(sql, tuple(conditions.values())).fetchone()
        return row["n"]

    # -- sessions --------------------------------------------------------------------

    def create_session(self, user_id: int) -> str:
        token = secrets.token_urlsafe(24)
        with self._lock:
            self._connection.execute(
                "INSERT INTO sessions (token, u_id, created_at) VALUES (?, ?, ?)",
                (token, user_id, time.time()),
            )
            self._connection.commit()
        return token

    def session_user(self, token: str, max_age: float = 3600.0) -> Optional[int]:
        with self._lock:
            row = self._connection.execute(
                "SELECT u_id, created_at FROM sessions WHERE token = ?", (token,)
            ).fetchone()
        if row is None:
            return None
        if time.time() - row["created_at"] > max_age:
            self.delete_session(token)
            return None
        return row["u_id"]

    def delete_session(self, token: str) -> None:
        with self._lock:
            self._connection.execute("DELETE FROM sessions WHERE token = ?", (token,))
            self._connection.commit()

    def session_count(self) -> int:
        with self._lock:
            row = self._connection.execute("SELECT COUNT(*) AS n FROM sessions").fetchone()
        return row["n"]

    # -- deployment configuration -------------------------------------------

    def config_setdefault(self, key: str, value: str) -> str:
        """Persist *value* under *key* unless one exists; return the winner.

        Deployment-scoped secrets (the CSRF signing key) go through this
        so a replica opening the same database file adopts the original
        deployment's secret instead of minting its own.
        """
        with self._lock:
            self._connection.execute(
                "INSERT OR IGNORE INTO config (key, value) VALUES (?, ?)",
                (key, value),
            )
            self._connection.commit()
            row = self._connection.execute(
                "SELECT value FROM config WHERE key = ?", (key,)
            ).fetchone()
        return row["value"]

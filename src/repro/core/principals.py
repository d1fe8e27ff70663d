"""Principals: the subjects that hold privileges.

The paper assigns privileges to two kinds of principal through the policy
file (§4.1): *units* in the event-processing backend and *users* whose web
requests the frontend serves. Both are modelled here; the policy module
builds them from a policy document, and enforcement code only ever looks
at ``principal.privileges``.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable, Optional

from repro.core.labels import Label, LabelSet
from repro.core.privileges import PrivilegeSet


class Principal:
    """A named subject holding a set of privileges."""

    __slots__ = ("name", "privileges")

    def __init__(self, name: str, privileges: Optional[PrivilegeSet] = None):
        self.name = name
        self.privileges = privileges or PrivilegeSet.empty()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Principal):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.name == other.name
            and self.privileges == other.privileges
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class UnitPrincipal(Principal):
    """An event-processing unit (backend principal).

    ``privileged`` marks units that run outside the IFC jail at the
    analogue of ``$SAFE=0`` and therefore can perform I/O — the paper's
    importer/exporter units. Such units can effectively declassify
    anything they receive, so the engine limits them by *withholding*
    clearance for the labels in ``withheld_labels`` (§4.3, last
    paragraph): matching events are simply never delivered to them.
    """

    __slots__ = ("privileged", "withheld_labels")

    def __init__(
        self,
        name: str,
        privileges: Optional[PrivilegeSet] = None,
        privileged: bool = False,
        withheld_labels: Iterable[Label | str] = (),
    ):
        super().__init__(name, privileges)
        self.privileged = privileged
        self.withheld_labels = LabelSet(withheld_labels)
        if self.withheld_labels:
            self.privileges = self.privileges.without_clearance_for(self.withheld_labels)

    def effective_clearance(self) -> PrivilegeSet:
        """The privileges used for subscription label filtering."""
        return self.privileges


class UserPrincipal(Principal):
    """A web user (frontend principal) with HTTP Basic credentials.

    Passwords are stored as salted SHA-256 digests; production would use a
    slow KDF, but the hashing scheme is orthogonal to the IFC mechanism
    under study and a fast digest keeps the benchmark's authentication
    component measurable in isolation.
    """

    __slots__ = ("password_salt", "password_digest", "mdt_id", "region")

    def __init__(
        self,
        name: str,
        privileges: Optional[PrivilegeSet] = None,
        password: Optional[str] = None,
        password_salt: Optional[str] = None,
        password_digest: Optional[str] = None,
        mdt_id: Optional[str] = None,
        region: Optional[str] = None,
    ):
        super().__init__(name, privileges)
        self.mdt_id = mdt_id
        self.region = region
        if password is not None:
            self.password_salt = password_salt or _derive_salt(name)
            self.password_digest = _digest(self.password_salt, password)
        else:
            self.password_salt = password_salt or ""
            self.password_digest = password_digest or ""

    def check_password(self, candidate: str) -> bool:
        """Constant-time comparison of a candidate password.

        Understands both digest formats in use: the policy file's plain
        salted SHA-256 and the web database's self-describing
        ``pbkdf2$<iterations>$<hex>``.
        """
        if not self.password_digest:
            return False
        expected = self.password_digest
        if expected.startswith("pbkdf2$"):
            try:
                _scheme, iterations_text, _hex = expected.split("$", 2)
                iterations = int(iterations_text)
            except ValueError:
                return False
            derived = hashlib.pbkdf2_hmac(
                "sha256", candidate.encode(), self.password_salt.encode(), iterations
            )
            return hmac.compare_digest(expected, f"pbkdf2${iterations}${derived.hex()}")
        actual = _digest(self.password_salt, candidate)
        return hmac.compare_digest(expected, actual)


def _derive_salt(name: str) -> str:
    return hashlib.sha256(f"safeweb-salt:{name}".encode()).hexdigest()[:16]


def _digest(salt: str, password: str) -> str:
    return hashlib.sha256(f"{salt}:{password}".encode()).hexdigest()
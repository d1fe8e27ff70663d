"""Policy documents: assigning privileges to units and users (paper §4.1).

Privileges associated with labels are assigned directly to units (in the
backend) and requests (in the frontend) through a *policy specification
file*. This module implements a small declarative text format plus a
JSON-equivalent programmatic form::

    # SafeWeb policy for the MDT web portal
    authority ecric.org.uk

    unit data_producer {
        privileged
        declassification label:conf:ecric.org.uk/patient
    }

    unit data_aggregator {
        clearance label:conf:ecric.org.uk/patient
    }

    user mdt1 {
        password secret1
        mdt 1
        region east
        clearance label:conf:ecric.org.uk/mdt/1
        declassification label:conf:ecric.org.uk/mdt/1
    }

Block bodies contain one directive per line. Privilege directives
(``clearance``, ``declassification``, ``endorsement``,
``clearance_low_integrity``) take a label URI; hierarchical grants apply to
the whole subtree under the URI. ``withhold`` in a unit block names labels
whose events must never be delivered to that (privileged) unit.

For policies with *dynamic* privileges the paper suggests a label manager
that delegates at runtime; :class:`LabelManager` implements that extension.
"""

from __future__ import annotations

import os

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.labels import Label, parse_label
from repro.core.principals import UnitPrincipal, UserPrincipal
from repro.core.privileges import PRIVILEGE_KINDS, PrivilegeSet
from repro.exceptions import LabelError, PolicyError

_PRIVILEGE_DIRECTIVES = set(PRIVILEGE_KINDS)


@dataclass
class UnitSpec:
    """Parsed ``unit`` block."""

    name: str
    privileged: bool = False
    grants: Dict[str, List[str]] = field(default_factory=dict)
    withhold: List[str] = field(default_factory=list)

    def build(self) -> UnitPrincipal:
        return UnitPrincipal(
            self.name,
            privileges=PrivilegeSet(self.grants),
            privileged=self.privileged,
            withheld_labels=self.withhold,
        )


@dataclass
class UserSpec:
    """Parsed ``user`` block."""

    name: str
    password: Optional[str] = None
    password_salt: Optional[str] = None
    password_digest: Optional[str] = None
    mdt_id: Optional[str] = None
    region: Optional[str] = None
    grants: Dict[str, List[str]] = field(default_factory=dict)

    def build(self) -> UserPrincipal:
        return UserPrincipal(
            self.name,
            privileges=PrivilegeSet(self.grants),
            password=self.password,
            password_salt=self.password_salt,
            password_digest=self.password_digest,
            mdt_id=self.mdt_id,
            region=self.region,
        )


@dataclass
class PolicyDocument:
    """The parsed, declarative form of a policy file."""

    authority: str = ""
    units: Dict[str, UnitSpec] = field(default_factory=dict)
    users: Dict[str, UserSpec] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "authority": self.authority,
            "units": {
                name: {
                    "privileged": spec.privileged,
                    "grants": spec.grants,
                    "withhold": spec.withhold,
                }
                for name, spec in self.units.items()
            },
            "users": {
                name: {
                    "password": spec.password,
                    "password_salt": spec.password_salt,
                    "password_digest": spec.password_digest,
                    "mdt": spec.mdt_id,
                    "region": spec.region,
                    "grants": spec.grants,
                }
                for name, spec in self.users.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PolicyDocument":
        payload = json.loads(text)
        document = cls(authority=payload.get("authority", ""))
        for name, body in payload.get("units", {}).items():
            document.units[name] = UnitSpec(
                name=name,
                privileged=bool(body.get("privileged")),
                grants={kind: list(labels) for kind, labels in body.get("grants", {}).items()},
                withhold=list(body.get("withhold", [])),
            )
        for name, body in payload.get("users", {}).items():
            document.users[name] = UserSpec(
                name=name,
                password=body.get("password"),
                password_salt=body.get("password_salt"),
                password_digest=body.get("password_digest"),
                mdt_id=body.get("mdt"),
                region=body.get("region"),
                grants={kind: list(labels) for kind, labels in body.get("grants", {}).items()},
            )
        return document


class Policy:
    """Built principals, ready for enforcement.

    The engine asks for unit principals, the web middleware for user
    principals. Lookups never return ``None`` silently: unknown names
    raise :class:`PolicyError` so misconfigurations fail closed.
    """

    def __init__(self, document: PolicyDocument):
        self.document = document
        self.authority = document.authority
        self._units = {name: spec.build() for name, spec in document.units.items()}
        self._users = {name: spec.build() for name, spec in document.users.items()}

    # -- lookups -------------------------------------------------------------

    def unit(self, name: str) -> UnitPrincipal:
        try:
            return self._units[name]
        except KeyError:
            raise PolicyError(f"no unit {name!r} in policy") from None

    def user(self, name: str) -> UserPrincipal:
        try:
            return self._users[name]
        except KeyError:
            raise PolicyError(f"no user {name!r} in policy") from None

    def find_user(self, name: str) -> Optional[UserPrincipal]:
        """Case-*sensitive* lookup returning ``None`` when absent.

        The §5.2 "errors in access checks" experiment injects a
        case-insensitive variant of this lookup to show SafeWeb containing
        the resulting privilege confusion.
        """
        return self._users.get(name)

    @property
    def unit_names(self) -> List[str]:
        return sorted(self._units)

    @property
    def user_names(self) -> List[str]:
        return sorted(self._users)

    # -- mutation (programmatic policies) -------------------------------------

    def add_user(self, user: UserPrincipal) -> None:
        self._users[user.name] = user


def parse_policy(text: str) -> Policy:
    """Parse the text policy format into a ready :class:`Policy`."""
    return Policy(parse_policy_document(text))


def _validate_label(uri: str, lineno: int) -> None:
    try:
        parse_label(uri)
    except LabelError as exc:
        raise PolicyError(f"line {lineno}: {exc}") from exc


def parse_policy_document(text: str) -> PolicyDocument:
    document = PolicyDocument()
    block_kind: Optional[str] = None
    block_name: Optional[str] = None
    unit_spec: Optional[UnitSpec] = None
    user_spec: Optional[UserSpec] = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()

        if block_kind is None:
            if tokens[0] == "authority" and len(tokens) == 2:
                document.authority = tokens[1]
            elif tokens[0] in ("unit", "user") and len(tokens) == 3 and tokens[2] == "{":
                block_kind, block_name = tokens[0], tokens[1]
                if block_kind == "unit":
                    if block_name in document.units:
                        raise PolicyError(f"line {lineno}: duplicate unit {block_name!r}")
                    unit_spec = UnitSpec(name=block_name)
                else:
                    if block_name in document.users:
                        raise PolicyError(f"line {lineno}: duplicate user {block_name!r}")
                    user_spec = UserSpec(name=block_name)
            else:
                raise PolicyError(f"line {lineno}: unexpected top-level directive {line!r}")
            continue

        if tokens == ["}"]:
            if block_kind == "unit":
                document.units[block_name] = unit_spec
            else:
                document.users[block_name] = user_spec
            block_kind = block_name = unit_spec = user_spec = None
            continue

        directive, args = tokens[0], tokens[1:]
        if directive in _PRIVILEGE_DIRECTIVES:
            if len(args) != 1:
                raise PolicyError(f"line {lineno}: {directive} expects one label URI")
            _validate_label(args[0], lineno)
            spec = unit_spec if block_kind == "unit" else user_spec
            spec.grants.setdefault(directive, []).append(args[0])
        elif block_kind == "unit" and directive == "privileged" and not args:
            unit_spec.privileged = True
        elif block_kind == "unit" and directive == "withhold" and len(args) == 1:
            _validate_label(args[0], lineno)
            unit_spec.withhold.append(args[0])
        elif block_kind == "user" and directive == "password" and len(args) == 1:
            user_spec.password = args[0]
        elif block_kind == "user" and directive == "password_digest" and len(args) == 2:
            user_spec.password_salt, user_spec.password_digest = args
        elif block_kind == "user" and directive == "mdt" and len(args) == 1:
            user_spec.mdt_id = args[0]
        elif block_kind == "user" and directive == "region" and len(args) == 1:
            user_spec.region = args[0]
        else:
            raise PolicyError(
                f"line {lineno}: unknown directive {directive!r} in {block_kind} block"
            )

    if block_kind is not None:
        raise PolicyError(f"unterminated {block_kind} block {block_name!r}")
    return document


def load_policy(path: "str | os.PathLike[str]") -> Policy:
    """Load a policy from a ``.policy`` (text) or ``.json`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if str(path).endswith(".json"):
        return Policy(PolicyDocument.from_json(text))
    return parse_policy(text)


class LabelManager:
    """Runtime privilege delegation (the paper's §4.1 extension point).

    Each label has an *owner* — the principal that created it. The owner
    implicitly holds every privilege over the label and may delegate any
    subset to other principals. Delegations may themselves be marked
    delegatable, forming a chain; revoking a delegation revokes everything
    granted *through* it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._owners: Dict[Label, str] = {}
        # (kind, label, grantee) -> (granter, delegatable)
        self._delegations: Dict[tuple, tuple] = {}

    def create_label(self, owner: str, label: Label | str) -> Label:
        if isinstance(label, str):
            label = parse_label(label)
        with self._lock:
            current = self._owners.get(label)
            if current is not None and current != owner:
                raise PolicyError(f"label {label.uri} already owned by {current!r}")
            self._owners[label] = owner
        return label

    def owner_of(self, label: Label) -> Optional[str]:
        with self._lock:
            return self._owners.get(label)

    def delegate(
        self,
        granter: str,
        grantee: str,
        kind: str,
        label: Label | str,
        delegatable: bool = False,
    ) -> None:
        """Record a delegation after verifying the granter's authority."""
        if kind not in PRIVILEGE_KINDS:
            raise PolicyError(f"unknown privilege kind {kind!r}")
        if isinstance(label, str):
            label = parse_label(label)
        with self._lock:
            if not self._may_grant_locked(granter, kind, label):
                raise PolicyError(
                    f"{granter!r} holds no delegatable {kind} over {label.uri}"
                )
            self._delegations[(kind, label, grantee)] = (granter, delegatable)

    def revoke(self, granter: str, grantee: str, kind: str, label: Label | str) -> None:
        """Remove a delegation and, transitively, grants made through it."""
        if isinstance(label, str):
            label = parse_label(label)
        with self._lock:
            key = (kind, label, grantee)
            entry = self._delegations.get(key)
            if entry is None or entry[0] != granter:
                raise PolicyError(
                    f"no delegation of {kind} over {label.uri} from {granter!r} to {grantee!r}"
                )
            del self._delegations[key]
            self._revoke_orphans_locked()

    def privileges_of(self, principal: str) -> PrivilegeSet:
        """The privilege set a principal currently holds via this manager."""
        with self._lock:
            grants: Dict[str, List[Label]] = {}
            for label, owner in self._owners.items():
                if owner == principal:
                    for kind in PRIVILEGE_KINDS:
                        grants.setdefault(kind, []).append(label)
            for (kind, label, grantee), _entry in self._delegations.items():
                if grantee == principal:
                    grants.setdefault(kind, []).append(label)
            return PrivilegeSet(grants)

    def holds(self, principal: str, kind: str, label: Label) -> bool:
        with self._lock:
            return self._holds_locked(principal, kind, label)

    # -- internal ------------------------------------------------------------

    def _holds_locked(self, principal: str, kind: str, label: Label) -> bool:
        if self._owners.get(label) == principal:
            return True
        return (kind, label, principal) in self._delegations

    def _may_grant_locked(self, granter: str, kind: str, label: Label) -> bool:
        if self._owners.get(label) == granter:
            return True
        entry = self._delegations.get((kind, label, granter))
        return entry is not None and entry[1]  # delegatable

    def _revoke_orphans_locked(self) -> None:
        # Iterate until fixpoint: a delegation is valid only while its
        # granter still holds a grantable privilege.
        changed = True
        while changed:
            changed = False
            for key, (granter, _delegatable) in list(self._delegations.items()):
                kind, label, _grantee = key
                if not self._may_grant_locked(granter, kind, label):
                    del self._delegations[key]
                    changed = True

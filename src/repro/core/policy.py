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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.labels import parse_label
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

"""Policy documents: assigning privileges to backend units (paper §4.1).

Privileges associated with labels are assigned directly to units in the
backend through a *policy specification file*. This module implements a
small declarative text format plus a JSON-equivalent programmatic form::

    # SafeWeb policy for the MDT web portal
    authority ecric.org.uk

    unit data_producer {
        privileged
        declassification label:conf:ecric.org.uk/patient
    }

    unit data_aggregator {
        clearance label:conf:ecric.org.uk/patient
    }

Block bodies contain one directive per line. Privilege directives
(``clearance``, ``declassification``, ``endorsement``,
``clearance_low_integrity``) take a label URI; hierarchical grants apply to
the whole subtree under the URI. ``withhold`` names labels whose events
must never be delivered to that (privileged) unit.

The policy describes units only. Web users, their credentials and their
privileges live in the web database (:mod:`repro.storage.webdb`, §5.1),
which the frontend resolves each request against; a policy carries no
credential.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.labels import parse_label
from repro.core.principals import UnitPrincipal
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
class PolicyDocument:
    """The parsed, declarative form of a policy file."""

    authority: str = ""
    units: Dict[str, UnitSpec] = field(default_factory=dict)

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
        return document


class Policy:
    """Built unit principals, ready for enforcement.

    Lookups never return ``None`` silently: an unknown unit raises
    :class:`PolicyError` so misconfigurations fail closed.
    """

    def __init__(self, document: PolicyDocument):
        self.document = document
        self.authority = document.authority
        self._units = {name: spec.build() for name, spec in document.units.items()}

    def unit(self, name: str) -> UnitPrincipal:
        try:
            return self._units[name]
        except KeyError:
            raise PolicyError(f"no unit {name!r} in policy") from None

    @property
    def unit_names(self) -> List[str]:
        return sorted(self._units)


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
    spec: Optional[UnitSpec] = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()

        if spec is None:
            if tokens[0] == "authority" and len(tokens) == 2:
                document.authority = tokens[1]
            elif tokens[0] == "unit" and len(tokens) == 3 and tokens[2] == "{":
                if tokens[1] in document.units:
                    raise PolicyError(f"line {lineno}: duplicate unit {tokens[1]!r}")
                spec = UnitSpec(name=tokens[1])
            else:
                raise PolicyError(f"line {lineno}: unexpected top-level directive {line!r}")
            continue

        if tokens == ["}"]:
            document.units[spec.name] = spec
            spec = None
            continue

        directive, args = tokens[0], tokens[1:]
        if directive in _PRIVILEGE_DIRECTIVES:
            if len(args) != 1:
                raise PolicyError(f"line {lineno}: {directive} expects one label URI")
            _validate_label(args[0], lineno)
            spec.grants.setdefault(directive, []).append(args[0])
        elif directive == "privileged" and not args:
            spec.privileged = True
        elif directive == "withhold" and len(args) == 1:
            _validate_label(args[0], lineno)
            spec.withhold.append(args[0])
        else:
            raise PolicyError(f"line {lineno}: unknown directive {directive!r} in unit block")

    if spec is not None:
        raise PolicyError(f"unterminated unit block {spec.name!r}")
    return document

"""Core IFC model: labels, privileges, principals, policy and audit.

This package implements the paper's §4.1 label model and the privilege
machinery that the event-processing backend (§4.3) and the web frontend
(§4.4) both enforce against.
"""

from repro.core.labels import (
    CONFIDENTIALITY,
    INTEGRITY,
    Label,
    LabelSet,
    conf_label,
    int_label,
    parse_label,
)
from repro.core.privileges import (
    CLEARANCE,
    CLEARANCE_LOW_INTEGRITY,
    DECLASSIFICATION,
    ENDORSEMENT,
    PrivilegeSet,
)
from repro.core.principals import Principal, UnitPrincipal, UserPrincipal
from repro.core.policy import Policy, PolicyDocument, parse_policy
from repro.core.audit import AuditLog, AuditRecord

__all__ = [
    "CONFIDENTIALITY",
    "INTEGRITY",
    "Label",
    "LabelSet",
    "conf_label",
    "int_label",
    "parse_label",
    "CLEARANCE",
    "CLEARANCE_LOW_INTEGRITY",
    "DECLASSIFICATION",
    "ENDORSEMENT",
    "PrivilegeSet",
    "Principal",
    "UnitPrincipal",
    "UserPrincipal",
    "Policy",
    "PolicyDocument",
    "parse_policy",
    "AuditLog",
    "AuditRecord",
]

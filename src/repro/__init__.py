"""SafeWeb reproduction: an IFC middleware for securing web applications.

A from-scratch Python reproduction of Hosek et al., "SafeWeb: A
Middleware for Securing Ruby-Based Web Applications" (Middleware 2011).

Public surface by tier:

* :mod:`repro.core` — labels, privileges, policy, audit;
* :mod:`repro.events` — the event-processing backend (broker, jail,
  engine, STOMP);
* :mod:`repro.taint` — variable-level taint tracking;
* :mod:`repro.storage` — document store, replication, web database;
* :mod:`repro.web` — the web frontend and SafeWeb middleware;
* :mod:`repro.mdt` — the MDT web portal case study.

The §5.2 attack corpus and the executable specs the property suites
compare against are test code, under ``tests/``; the §5.3 evaluation
harness is ``benchmarks/``.

The most commonly used names are re-exported here.
"""

from repro.core.labels import Label, LabelSet, conf_label, int_label, parse_label
from repro.core.privileges import PrivilegeSet
from repro.core.policy import Policy, parse_policy
from repro.core.audit import AuditLog
from repro.events import Broker, Event, EventProcessingEngine, Unit
from repro.taint import LabeledStr, label, labels_of, mark_user_input
from repro.web import SafeWebApp, SafeWebMiddleware

__version__ = "1.0.0"

__all__ = [
    "Label",
    "LabelSet",
    "conf_label",
    "int_label",
    "parse_label",
    "PrivilegeSet",
    "Policy",
    "parse_policy",
    "AuditLog",
    "Broker",
    "Event",
    "EventProcessingEngine",
    "Unit",
    "LabeledStr",
    "label",
    "labels_of",
    "mark_user_input",
    "SafeWebApp",
    "SafeWebMiddleware",
    "__version__",
]

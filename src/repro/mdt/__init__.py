"""The MDT web portal application (paper §2.1, §5.1).

The case study that validates SafeWeb: a portal feeding cancer
registration data back to the hospital Multidisciplinary Teams (MDTs)
that treat the patients. Three event-processing units implement the
backend (Figure 4):

* :class:`~repro.mdt.producer.DataProducer` (privileged) — reads the
  main registration database and publishes labelled case events;
* :class:`~repro.mdt.aggregator.DataAggregator` (jailed) — combines the
  events of each cancer case into aggregated records and computes MDT
  and regional metrics;
* :class:`~repro.mdt.storage_unit.DataStorage` (privileged, holds
  declassification for all MDTs) — persists records and relabelled
  aggregates into the application database.

The Sinatra-style frontend (:mod:`repro.mdt.portal`) serves the DMZ
replica; its one trusted route, privilege assignment, is
:mod:`repro.mdt.admin`. :mod:`repro.mdt.deployment` wires the whole of
Figure 4 together, zones and firewall included.
"""

from repro.mdt.labels import (
    AUTHORITY,
    mdt_aggregate_label,
    mdt_label,
    patient_label,
    region_aggregate_label,
)
from repro.mdt.workload import MdtDirectory, MdtInfo, WorkloadConfig, generate_workload
from repro.mdt.producer import DataProducer
from repro.mdt.aggregator import DataAggregator
from repro.mdt.storage_unit import DataStorage
from repro.mdt.portal import build_portal
from repro.mdt.deployment import Firewall, MdtDeployment, Zone

__all__ = [
    "AUTHORITY",
    "patient_label",
    "mdt_label",
    "mdt_aggregate_label",
    "region_aggregate_label",
    "WorkloadConfig",
    "MdtDirectory",
    "MdtInfo",
    "generate_workload",
    "DataProducer",
    "DataAggregator",
    "DataStorage",
    "build_portal",
    "MdtDeployment",
    "Firewall",
    "Zone",
]

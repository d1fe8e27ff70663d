"""Static information-flow analysis for SafeWeb codebases.

SafeWeb enforces information flow *dynamically*: labels, jails and
clearance checks stop leaks at runtime, at runtime cost, and only on
paths that actually execute. This package is the complementary half —
an AST-based analyzer that rejects leaky code before it ever runs,
in the spirit of LWeb's static label checking (PAPERS.md).

Three passes:

* **IFC lint rules** (:mod:`repro.analysis.ifc_rules`) — syntactic
  contract checks: label-internal mutation, jailed I/O, string-assembled
  SQL, route-hook bypasses, disabled enforcement flags, label-dropping
  publishes, clearance-unfiltered reads.
* **Taint summaries** (:mod:`repro.analysis.taint`) — per-function
  intraprocedural dataflow with one-level call summaries: request
  params / headers / docstore reads are sources, responses / store
  writes / publishes / SQL execution are sinks; paths that skip
  ``repro.taint.sanitize`` are flagged.
* **Lock-order race detector** (:mod:`repro.analysis.locks`) — extracts
  the lock-acquisition graph (shard locks, broker and STOMP locks,
  cluster router locks, …), reports cycles and acquisitions of a coarser lock
  while a finer one is held.

Entry points: :func:`analyze` (used by ``scripts/analyze.py`` and
``make lint-ifc``) and :func:`repro.analysis.locks.build_lock_graph`
(pinned cycle-free by the test suite).
"""

from repro.analysis.findings import Finding, RuleInfo, RULES, Severity
from repro.analysis.framework import (
    CORPUS_MODULES,
    Project,
    analyze,
    analyze_source,
    load_project,
)
from repro.analysis.locks import LockGraph, build_lock_graph

__all__ = [
    "Finding",
    "RuleInfo",
    "RULES",
    "Severity",
    "Project",
    "CORPUS_MODULES",
    "analyze",
    "analyze_source",
    "load_project",
    "LockGraph",
    "build_lock_graph",
]

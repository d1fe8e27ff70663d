"""Harness for the §5.2 adversarial vulnerability corpus.

Runs one :class:`~tests.security.corpus.vulnerabilities.Vulnerability`
entry in one direction and reduces the outcome to a :class:`CorpusResult` the
regression suite (``tests/security``) and the runnable demonstration
(``examples/vulnerability_injection.py``) both assert against:

* ``protected=True`` builds the deployment with every check on and
  expects the attack to end in a *labelled denial* — the entry's
  expected HTTP status and/or denied audit record, with the leak oracle
  finding nothing;
* ``protected=False`` builds the unprotected baseline (the entry's
  ``unprotected`` overrides applied) and expects the oracle to find the
  disclosure — proving the injection is live, not a strawman.

Deployment-matrix keyword arguments (``supervision``, ``shards``,
``cached_auth``, ``page_cache``, ``data_dir``, …; the axes are defined
once, in ``tests/property/oracle.py``) pass straight through to
:class:`~repro.mdt.deployment.MdtDeployment`, so the same contract is
asserted with callback errors propagated or supervised, across
cached/uncached web paths and sharded/durable stores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional

from repro.core.audit import DENIED
from repro.exceptions import SecurityViolation
from repro.mdt.deployment import MdtDeployment
from tests.security.corpus.vulnerabilities import (
    VULNERABILITIES,
    Vulnerability,
    build_vulnerable_deployment,
)

def entry_names(*tiers: str) -> List[str]:
    """Corpus entry names, optionally restricted to the given tiers."""
    return sorted(
        name
        for name, entry in VULNERABILITIES.items()
        if not tiers or entry.tier in tiers
    )


def http_entry_names() -> List[str]:
    """Entries whose attack travels the web request path (web-matrix axis)."""
    return entry_names("web", "storage", "multi")


@dataclass
class CorpusResult:
    """One corpus entry executed in one direction on one configuration."""

    entry: Vulnerability
    protected: bool
    outcome: Dict[str, Any]
    #: Disclosure evidence the oracle found (empty = contained).
    leaked: FrozenSet[str]
    #: HTTP status of the decisive response, when the attack is HTTP-shaped.
    status: Optional[int]
    #: Class name of a synchronously propagated security violation.
    violation: Optional[str]
    #: Denied audit records matching the entry's expected (component,
    #: operation), counted over the attack only (pipeline noise excluded).
    denials: int
    deployment: MdtDeployment

    @property
    def contained(self) -> bool:
        """The protected direction's full contract."""
        if self.leaked:
            return False
        entry = self.entry
        if entry.expected_status is not None and self.status != entry.expected_status:
            return False
        if entry.expected_audit is not None and self.denials < 1:
            return False
        return True

    @property
    def exploited(self) -> bool:
        """The unprotected direction's contract: the bug really leaks."""
        return bool(self.leaked)


def _expected_denials(deployment: MdtDeployment, entry: Vulnerability) -> int:
    if entry.expected_audit is None:
        return 0
    component, operation = entry.expected_audit
    return deployment.audit.count(
        component=component, operation=operation, decision=DENIED
    )


def _cleanup(deployment: MdtDeployment) -> None:
    spool = deployment.scratch.get("export_spool")
    if spool:
        try:
            os.unlink(spool)
        except OSError:
            pass
    if deployment.data_dir is not None:
        try:
            deployment.close()
        except Exception:  # noqa: BLE001 - cleanup must not mask the result
            pass


def run_entry(
    name: str,
    protected: bool,
    **deployment_kwargs,
) -> CorpusResult:
    """Build, attack, observe: one corpus entry in one direction."""
    entry = VULNERABILITIES[name]
    deployment = build_vulnerable_deployment(name, check_labels=protected, **deployment_kwargs)
    try:
        baseline = _expected_denials(deployment, entry)
        try:
            outcome = entry.attack(deployment)
        except SecurityViolation as violation:
            # Synchronous engines propagate in-callback denials to the
            # publisher; that *is* the labelled denial for event-tier
            # entries whose attack has no HTTP response to inspect.
            outcome = {"violation": type(violation).__name__}
        deployment._settle()
        leaked = frozenset(entry.leak_oracle(deployment, outcome))
        denials = _expected_denials(deployment, entry) - baseline
        return CorpusResult(
            entry=entry,
            protected=protected,
            outcome=outcome,
            leaked=leaked,
            status=outcome.get("status"),
            violation=outcome.get("violation"),
            denials=denials,
            deployment=deployment,
        )
    finally:
        _cleanup(deployment)

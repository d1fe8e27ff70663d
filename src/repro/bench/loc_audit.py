"""Trusted-codebase accounting (paper §5.2, experiment E6).

The paper quantifies the audit-effort reduction: SafeWeb's taint tracking
library is 1943 LOC and its event processing engine 1908 LOC — audited
once — while per-application trusted code shrinks to the privileged
units (138 LOC) plus the privilege-assignment frontend code (142 LOC);
the remaining 2841 LOC of the MDT application need no security audit.

This module computes the same inventory for this repository: non-blank,
non-comment source lines per component, partitioned into middleware
(audited once), application-trusted and application-untrusted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Middleware components, named to match the paper's accounting.
MIDDLEWARE_COMPONENTS: Dict[str, Tuple[str, ...]] = {
    "taint tracking library": ("taint",),
    "event processing engine": ("events",),
    "core label model": ("core",),
    "web middleware": ("web",),
    "storage substrate": ("storage",),
}

#: The application-trusted pieces: the privileged units, and the
#: federation gateway, which writes other regions' aggregates into the
#: application database itself, outside any unit's label checks.
APPLICATION_TRUSTED: Tuple[str, ...] = (
    "mdt/producer.py",
    "mdt/storage_unit.py",
    "mdt/federation.py",
)

#: Application code whose bugs SafeWeb contains (no audit required).
APPLICATION_UNTRUSTED: Tuple[str, ...] = (
    "mdt/aggregator.py",
    "mdt/portal.py",
    "mdt/metrics.py",
    "mdt/workload.py",
    "mdt/deployment.py",
    "mdt/labels.py",
)


def count_loc(path: Path) -> int:
    """Non-blank, non-comment, non-docstring logical source lines."""
    source = path.read_text(encoding="utf-8")
    docstring_lines = _docstring_line_numbers(source)
    count = 0
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or lineno in docstring_lines:
            continue
        count += 1
    return count


def _docstring_line_numbers(source: str) -> set:
    lines: set = set()
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return lines
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = getattr(node, "body", [])
            if body and isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant
            ) and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _loc_of_files(files: Iterable[Path]) -> int:
    return sum(count_loc(path) for path in files)


@dataclass
class LocReport:
    """The §5.2-style inventory."""

    middleware: Dict[str, int] = field(default_factory=dict)
    application_trusted: Dict[str, int] = field(default_factory=dict)
    application_untrusted: Dict[str, int] = field(default_factory=dict)

    @property
    def middleware_total(self) -> int:
        return sum(self.middleware.values())

    @property
    def trusted_application_total(self) -> int:
        return sum(self.application_trusted.values())

    @property
    def untrusted_application_total(self) -> int:
        return sum(self.application_untrusted.values())

    @property
    def audit_reduction_ratio(self) -> float:
        """Untrusted ÷ (trusted app code): how much audit scope shrank."""
        trusted = self.trusted_application_total
        if trusted == 0:
            return 0.0
        return self.untrusted_application_total / trusted

    def rows(self) -> List[Tuple[str, str, int]]:
        table: List[Tuple[str, str, int]] = []
        for name, loc in sorted(self.middleware.items()):
            table.append(("middleware (audited once)", name, loc))
        for name, loc in sorted(self.application_trusted.items()):
            table.append(("application trusted", name, loc))
        for name, loc in sorted(self.application_untrusted.items()):
            table.append(("application untrusted", name, loc))
        return table


def audit_repository(package_root: Path | None = None) -> LocReport:
    """Build the inventory for this repository's ``repro`` package."""
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    report = LocReport()
    for component, subpackages in MIDDLEWARE_COMPONENTS.items():
        files: List[Path] = []
        for subpackage in subpackages:
            files.extend(sorted((package_root / subpackage).rglob("*.py")))
        report.middleware[component] = _loc_of_files(files)
    for relative in APPLICATION_TRUSTED:
        report.application_trusted[relative] = count_loc(package_root / relative)
    for relative in APPLICATION_UNTRUSTED:
        report.application_untrusted[relative] = count_loc(package_root / relative)
    return report

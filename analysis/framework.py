"""Project loading and pass orchestration for the static analyzer.

A :class:`Project` is a set of parsed modules (path, source, AST,
suppressions). :func:`analyze` runs the three passes — IFC lint rules,
taint summaries, the lock-order detector — over a project and returns
the surviving findings sorted by (file, line, rule).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from analysis.findings import (
    Finding,
    is_suppressed,
    parse_suppressions,
)

@dataclass
class ModuleSource:
    """One parsed source module plus its suppression tables."""

    path: Path  #: absolute path on disk
    rel: str  #: forward-slash path relative to the analysis root
    source: str
    tree: ast.Module
    line_suppressions: Mapping[int, FrozenSet[str]] = field(default_factory=dict)
    file_suppressions: FrozenSet[str] = frozenset()

    @classmethod
    def parse(cls, path: Path, rel: str, source: Optional[str] = None) -> "ModuleSource":
        text = path.read_text() if source is None else source
        tree = ast.parse(text, filename=str(path))
        by_line, file_wide = parse_suppressions(text)
        return cls(path, rel, text, tree, by_line, file_wide)


@dataclass
class Project:
    """The unit the passes run over: every module, loaded and parsed."""

    modules: List[ModuleSource]
    root: Path

    def module(self, rel_suffix: str) -> Optional[ModuleSource]:
        """The module whose relative path ends with *rel_suffix*."""
        for module in self.modules:
            if module.rel.endswith(rel_suffix):
                return module
        return None


def _iter_python_files(path: Path) -> Iterable[Path]:
    if path.is_file():
        yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        yield candidate


def load_project(
    paths: Sequence[Path | str],
    root: Optional[Path | str] = None,
) -> Project:
    """Parse every ``.py`` file under *paths* into a :class:`Project`.

    *root* anchors the relative paths findings report (defaults to the
    first path, or its directory when it is a file).
    """
    resolved = [Path(p).resolve() for p in paths]
    if root is None:
        anchor = resolved[0]
        base = anchor if anchor.is_dir() else anchor.parent
    else:
        base = Path(root).resolve()
    modules: List[ModuleSource] = []
    seen: set = set()
    for path in resolved:
        for file_path in _iter_python_files(path):
            if file_path in seen:
                continue
            seen.add(file_path)
            try:
                rel = file_path.relative_to(base).as_posix()
            except ValueError:
                rel = file_path.as_posix()
            modules.append(ModuleSource.parse(file_path, rel))
    return Project(modules, base)


def _run_passes(project: Project, rules: Optional[Sequence[str]]) -> List[Finding]:
    # Imported here: the passes import this module's dataclasses.
    from analysis.ifc_rules import run_ifc_rules
    from analysis.locks import run_lock_rules
    from analysis.taint import run_taint_rules

    findings: List[Finding] = []
    findings.extend(run_ifc_rules(project))
    findings.extend(run_taint_rules(project))
    findings.extend(run_lock_rules(project))
    if rules is not None:
        wanted = set(rules)
        findings = [finding for finding in findings if finding.rule in wanted]
    return findings


def analyze(
    paths: Sequence[Path | str],
    root: Optional[Path | str] = None,
    rules: Optional[Sequence[str]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    """Run every pass over *paths* and return the sorted findings."""
    project = load_project(paths, root=root)
    return analyze_project(
        project, rules=rules, respect_suppressions=respect_suppressions
    )


def analyze_project(
    project: Project,
    rules: Optional[Sequence[str]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    findings = _run_passes(project, rules)
    if respect_suppressions:
        tables: Dict[str, ModuleSource] = {m.rel: m for m in project.modules}
        findings = [
            finding
            for finding in findings
            if (module := tables.get(finding.path)) is None
            or not is_suppressed(
                finding, module.line_suppressions, module.file_suppressions
            )
        ]
    return sorted(findings)


def analyze_source(
    source: str,
    rel: str = "snippet.py",
    rules: Optional[Sequence[str]] = None,
    respect_suppressions: bool = True,
) -> List[Finding]:
    """Analyze an in-memory snippet (the fixture tests' entry point)."""
    module = ModuleSource.parse(Path(rel), rel, source=source)
    project = Project([module], Path("."))
    return analyze_project(
        project, rules=rules, respect_suppressions=respect_suppressions
    )

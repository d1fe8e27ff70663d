"""The headline validation: the static analyzer vs. the PR 8 corpus.

Every injection lives in the corpus source,
``repro/mdt/vulnerabilities.py`` (patch functions, malicious units,
config flags in the registry entry), and must be flagged by exactly the
expected rule ids at lines belonging to that vulnerability's code. One
entry has no syntactic shape to key on — the aggregator design error is
an ordinary unit with a wrong match key — and is pinned dynamic-only:
it must stay undetected, and the dynamic security matrix covers it.

The paper's argument order is preserved: dynamic enforcement is the
backstop; the analyzer is the cheap first line that catches the
statically visible shapes before deployment.
"""

import ast
from pathlib import Path
from typing import Dict, Set, Tuple

import pytest

from repro.analysis.framework import analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
CORPUS = SRC / "repro" / "mdt" / "vulnerabilities.py"

#: vulnerability name → exactly the rule ids that fire inside its code. A
#: name mapped to an empty set is pinned as dynamic-only (no static finding).
EXPECTED: Dict[str, Set[str]] = {
    # web tier
    "omitted_access_check": {"ifc-route-hook-bypass"},
    "access_check_error": {"ifc-route-hook-bypass"},
    "inappropriate_access_check": {"ifc-route-hook-bypass"},
    "stored_xss": {"taint-store-write"},
    "reflected_xss": {"taint-html-response", "ifc-route-hook-bypass"},
    "csrf_check_bypass": {"ifc-checks-disabled"},
    "missing_after_hook": {"ifc-unfiltered-read", "ifc-route-hook-bypass"},
    "parameter_tampering": {"taint-identity-override", "ifc-route-hook-bypass"},
    # storage tier
    "clearance_unfiltered_view": {"ifc-unfiltered-read", "ifc-route-hook-bypass"},
    "dmz_overreplication": {"ifc-unfiltered-read", "ifc-route-hook-bypass"},
    "sql_quote_bypass": {"ifc-sql-concat", "taint-sql-exec", "taint-html-response"},
    # event tier
    # A subclass overriding match_key() and re-registered under the same
    # name: semantically wrong, syntactically an ordinary unit.
    "design_error": set(),
    "unlabeled_republish": {"ifc-label-drop", "ifc-checks-disabled"},
    "overbroad_selector": {"ifc-checks-disabled"},
    "declassify_without_privilege": {"ifc-label-drop", "ifc-checks-disabled"},
    # multi-tier
    "bulletin_board": {"ifc-unlabeled-publish"},
    "export_feed": {"ifc-jail-io", "ifc-route-hook-bypass", "ifc-checks-disabled"},
}

DETECTION_FLOOR = 16  # of 17: everything but the semantic design error


def _module_ranges(tree: ast.Module) -> Dict[str, Tuple[int, int]]:
    """Module-level def/class name → (first line, last line)."""
    ranges: Dict[str, Tuple[int, int]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            ranges[node.name] = (node.lineno, node.end_lineno or node.lineno)
    return ranges


def _referenced_names(node: ast.AST) -> Set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _vulnerability_ranges() -> Dict[str, Set[Tuple[int, int]]]:
    """name → line ranges of its registry entry plus its code closure."""
    tree = ast.parse(CORPUS.read_text())
    module_ranges = _module_ranges(tree)
    # def/class name → names of module-level defs it references, for the
    # fixed-point closure (patch → unit class → helper …).
    references: Dict[str, Set[str]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            references[node.name] = _referenced_names(node) & set(module_ranges)

    ranges: Dict[str, Set[Tuple[int, int]]] = {}
    for call in ast.walk(tree):
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "Vulnerability"
        ):
            continue
        name = next(
            keyword.value.value
            for keyword in call.keywords
            if keyword.arg == "name"
            and isinstance(keyword.value, ast.Constant)
        )
        closure = _referenced_names(call) & set(module_ranges)
        frontier = set(closure)
        while frontier:
            extra = set()
            for ref in frontier:
                extra |= references.get(ref, set()) - closure
            closure |= extra
            frontier = extra
        entry = {(call.lineno, call.end_lineno or call.lineno)}
        ranges[name] = entry | {module_ranges[ref] for ref in closure}
    return ranges


@pytest.fixture(scope="module")
def detections() -> Dict[str, Set[str]]:
    """name → rule ids the analyzer fired inside that vulnerability's code."""
    findings = analyze([CORPUS], root=SRC, exclude=())
    ranges = _vulnerability_ranges()
    hits: Dict[str, Set[str]] = {name: set() for name in ranges}
    for finding in findings:
        for name, spans in ranges.items():
            if any(start <= finding.line <= end for start, end in spans):
                hits[name].add(finding.rule)
    return hits


def test_registry_and_expectations_agree(detections):
    assert set(detections) == set(EXPECTED), (
        "corpus registry and EXPECTED table drifted apart"
    )


def test_expected_rules_fire_for_each_vulnerability(detections):
    for name, expected in EXPECTED.items():
        assert detections[name] == expected, (
            f"{name}: expected exactly {sorted(expected)}, "
            f"got {sorted(detections[name])}"
        )


def test_dynamic_only_vulnerabilities_stay_undetected(detections):
    for name, required in EXPECTED.items():
        if not required:
            assert detections[name] == set(), (
                f"{name} is pinned dynamic-only but the analyzer flagged "
                f"{sorted(detections[name])}; update EXPECTED if the "
                f"corpus changed"
            )


def test_detection_floor(detections):
    detected = sorted(name for name, rules in detections.items() if rules)
    assert len(detected) >= DETECTION_FLOOR, (
        f"only {len(detected)}/17 vulnerabilities statically detected: "
        f"{detected}"
    )


def test_detection_census_is_exactly_the_expected_set(detections):
    detected = {name for name, rules in detections.items() if rules}
    expected_detected = {name for name, rules in EXPECTED.items() if rules}
    assert detected == expected_detected

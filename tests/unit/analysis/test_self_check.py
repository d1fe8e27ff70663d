"""The analyzer's standing contract: the clean SafeWeb tree has zero findings.

Real violations get fixed, not suppressed. No file under ``src/repro``
carries a suppression, line- or file-level: the ablation harness that
must switch enforcement off lives under ``benchmarks/``, outside the
analyzed tree. Should one ever be sanctioned, it must carry a reason.
"""

import re
from pathlib import Path

from analysis.findings import _SUPPRESS_RE
from analysis.framework import analyze

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src"


def test_clean_tree_has_zero_findings():
    findings = analyze([SRC / "repro"], root=SRC)
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"unexpected analyzer findings:\n{rendered}"


def test_corpus_is_analyzed_by_its_own_path():
    """Nothing in src/ is excluded; the leaky corpus is test code, and
    analyzed from its own directory it trips the rule that exempts paths
    under ``tests/``."""
    corpus = REPO_ROOT / "tests" / "security" / "corpus" / "vulnerabilities.py"
    findings = analyze([corpus])
    assert {finding.path for finding in findings} == {"vulnerabilities.py"}
    assert "ifc-checks-disabled" in {finding.rule for finding in findings}


def _scannable_modules():
    return sorted((SRC / "repro").rglob("*.py"))


def test_every_suppression_in_src_carries_a_reason():
    for path in _scannable_modules():
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            assert match.group("reason"), (
                f"{path}:{lineno}: suppression without a reason "
                f"(add '-- why this is safe')"
            )


def test_no_module_in_src_carries_a_suppression():
    offenders = {
        path.relative_to(SRC).as_posix()
        for path in _scannable_modules()
        if _SUPPRESS_RE.search(path.read_text())
    }
    assert offenders == set(), f"suppressions in src/repro: {offenders}"

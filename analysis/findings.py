"""Findings, rule metadata and the suppression-comment syntax.

Every rule in the analyzer has a stable kebab-case id, a severity and a
fix hint; every finding it emits carries the file, line, rule id and a
message specific to the flagged code. Findings order by (file, line,
rule) so analyzer output is deterministic.

Suppressions
------------

A finding can be silenced at the source line (or the line directly
above it) with::

    risky_call()  # ifc: allow[rule-id] -- why this is safe here

or for a whole file — reserved for seed reference modules that
intentionally embody the pre-SafeWeb semantics (benchmark ablations,
the executable seed specs)::

    # ifc: allow-file[rule-id] -- reason

``allow[*]`` / ``allow-file[*]`` match every rule. The reason text
after ``--`` is optional but the analyzer's self-check test treats a
bare suppression in ``src/`` as a smell; give one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple


class Severity:
    """Finding severities (plain strings so findings serialize cleanly)."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One analyzer finding, anchored to a source line."""

    path: str  #: repo-relative path of the flagged file
    line: int  #: 1-indexed source line
    rule: str  #: stable rule id, e.g. ``ifc-sql-concat``
    severity: str = field(compare=False)
    message: str = field(compare=False)
    fix_hint: str = field(compare=False, default="")

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.rule}] {self.severity}: "
            f"{self.message}"
            + (f"\n    fix: {self.fix_hint}" if self.fix_hint else "")
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


@dataclass(frozen=True)
class RuleInfo:
    """Catalogue entry for one rule (docs/ANALYSIS.md mirrors this)."""

    rule: str
    severity: str
    summary: str
    fix_hint: str


#: The rule catalogue. Ids are stable; tests and suppressions key on them.
RULES: Dict[str, RuleInfo] = {
    info.rule: info
    for info in (
        # -- IFC lint rules -------------------------------------------------
        RuleInfo(
            "ifc-label-internals",
            Severity.ERROR,
            "Label/LabelSet internals touched outside core/labels.py: "
            "mutating _labels / intern tables or constructing through the "
            "non-interning private APIs breaks identity equality and every "
            "memoized IFC operator built on it.",
            "construct labels through conf_label/int_label/parse_label and "
            "label sets through LabelSet()/LabelSet.of/add/remove/combine.",
        ),
        RuleInfo(
            "ifc-raw-json",
            Severity.ERROR,
            "raw json.dumps/json.loads applied to a labelled document (or "
            "kept as a view row's derived form): the stdlib codec silently "
            "strips label sidecars and user taint.",
            "use repro.taint.json_codec.dumps/loads/encode_document (or "
            "join_array over view rows' .json, i.e. "
            "row.form(json_codec.dumps)), which carry the labels through "
            "serialisation.",
        ),
        RuleInfo(
            "ifc-jail-io",
            Severity.ERROR,
            "direct file/socket/process I/O inside an event-unit callback: "
            "the isolation jail denies it at runtime; statically it is an "
            "unlabelled side channel out of the engine.",
            "move I/O behind a privileged unit or the labelled store; units "
            "communicate only through labelled events and the store.",
        ),
        RuleInfo(
            "ifc-sql-concat",
            Severity.ERROR,
            "SQL assembled by string concatenation/formatting around dynamic "
            "values, bypassing sql_quote(): the classic injection shape.",
            "use parameterised queries (webdb style) or wrap every dynamic "
            "part in repro.taint.sanitize.sql_quote().",
        ),
        RuleInfo(
            "ifc-route-hook-bypass",
            Severity.ERROR,
            "route wired around the framework's enforcement hooks: adding "
            "paths to the middleware's public set or swapping a route "
            "handler in place skips the after-hook response label check.",
            "register routes through SafeWebApp decorators and keep them "
            "inside the authenticated filter chain.",
        ),
        RuleInfo(
            "ifc-checks-disabled",
            Severity.ERROR,
            "an enforcement switch (check_labels/check_taint/csrf_protect/"
            "label_events/isolation/label_checks_in_broker) is turned off "
            "outside tests/.",
            "never disable enforcement in production code; the ablation "
            "benchmarks that must live under benchmarks/, outside src/.",
        ),
        RuleInfo(
            "ifc-label-drop",
            Severity.ERROR,
            "publish() drops labels (remove_all=True or an explicit remove "
            "list): declassification needs privilege and review — flagged "
            "so every such site is an audited, deliberate decision.",
            "prefer publishing under the ambient labels; when declassifying, "
            "suppress this finding at the site with the justification.",
        ),
        RuleInfo(
            "ifc-unfiltered-read",
            Severity.ERROR,
            "a request handler queries a document view without a key or "
            "clearance filter (or dumps all_docs()): every principal's "
            "documents come back and only the response-time label check "
            "stands between them and the client.",
            "pass key= scoped to the authenticated principal, or "
            "view(clearance=...) to pre-filter by the requester's clearance.",
        ),
        RuleInfo(
            "ifc-unlabeled-publish",
            Severity.ERROR,
            "a web handler publishes an event whose attributes derive from "
            "labelled store reads: external ingress trusts declared labels, "
            "so the store's labels are dropped at the web/event boundary.",
            "publish from a unit (ambient labels combine automatically) or "
            "attach the source document's labels explicitly.",
        ),
        # -- taint source→sink summaries ------------------------------------
        RuleInfo(
            "taint-html-response",
            Severity.ERROR,
            "user input flows into an HTML response by raw string assembly "
            "without html_escape(): reflected/stored XSS.",
            "wrap the value in repro.taint.sanitize.html_escape() or render "
            "through the template registry (which escapes).",
        ),
        RuleInfo(
            "taint-sql-exec",
            Severity.ERROR,
            "user input flows into execute() without sql_quote() or a "
            "parameterised placeholder: SQL injection.",
            "use parameterised queries; sql_quote() only for the paper's "
            "string-assembly paths.",
        ),
        RuleInfo(
            "taint-store-write",
            Severity.ERROR,
            "unsanitised user input is persisted (store write or shared "
            "collection) and will reach a renderer later: stored XSS shape.",
            "html_escape()/validate before persisting, or endorse_user_input "
            "after an allow-list check.",
        ),
        RuleInfo(
            "taint-identity-override",
            Severity.ERROR,
            "a request parameter overrides the authenticated identity "
            "(params mixed with request.user.* as a fallback) before a "
            "store read: parameter tampering.",
            "derive the scope from request.user only; never let the query "
            "string pick whose data to fetch.",
        ),
        # -- lock-order race detector ---------------------------------------
        RuleInfo(
            "lock-cycle",
            Severity.ERROR,
            "the static lock-acquisition graph contains a cycle: two code "
            "paths take these locks in opposite orders and can deadlock.",
            "impose one global order (coarse to fine) and release before "
            "acquiring a peer lock.",
        ),
        RuleInfo(
            "lock-order",
            Severity.ERROR,
            "a coarser lock is acquired while a finer one is held, "
            "inverting the configured hierarchy for its subsystem.",
            "restructure so registry/store locks are taken before (or "
            "released ahead of) leaf locks; see LOCK_HIERARCHY in "
            "analysis/locks.py.",
        ),
    )
}


_SUPPRESS_RE = re.compile(
    r"#\s*ifc:\s*(?P<scope>allow|allow-file)\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<reason>.*))?"
)


def parse_suppressions(
    source: str,
) -> Tuple[Mapping[int, FrozenSet[str]], FrozenSet[str]]:
    """Extract suppression comments from *source*.

    Returns ``(line_suppressions, file_suppressions)``: a mapping of
    1-indexed line number to the rule ids silenced on that line, and the
    set of rule ids silenced for the whole file. A line suppression
    covers its own line and the line below it, so it can sit on the
    statement itself or on a comment line directly above.
    """
    by_line: Dict[int, set] = {}
    file_wide: set = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            rule.strip() for rule in match.group("rules").split(",") if rule.strip()
        )
        if not rules:
            continue
        if match.group("scope") == "allow-file":
            file_wide |= rules
        else:
            by_line.setdefault(lineno, set()).update(rules)
            by_line.setdefault(lineno + 1, set()).update(rules)
    return (
        {line: frozenset(rules) for line, rules in by_line.items()},
        frozenset(file_wide),
    )


def is_suppressed(
    finding: Finding,
    line_suppressions: Mapping[int, FrozenSet[str]],
    file_suppressions: FrozenSet[str],
) -> bool:
    if "*" in file_suppressions or finding.rule in file_suppressions:
        return True
    rules = line_suppressions.get(finding.line, frozenset())
    return "*" in rules or finding.rule in rules

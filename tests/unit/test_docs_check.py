"""The docs-check gate, run as part of the tier-1 suite.

``scripts/docs_check.py`` fails when any ``docs/*.md`` or the root
``README.md`` references a module path, file path or make target that no
longer exists, or has a heading that names a PR; running it here keeps
the docs tier honest on every test run, not only when ``make
docs-check`` is invoked explicitly.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "docs_check.py"


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *arguments],
        capture_output=True,
        text=True,
    )


def test_repo_docs_pass():
    result = _run()
    assert result.returncode == 0, result.stderr


@pytest.fixture()
def broken_tree(tmp_path: Path) -> Path:
    (tmp_path / "docs").mkdir()
    (tmp_path / "Makefile").write_text("real-target:\n\ttrue\n")
    (tmp_path / "docs" / "BAD.md").write_text(
        "See `repro.storage.nonexistent_module`, `scripts/gone.py`, `analysis/gone.py` and\n"
        "`perf/gone.py`, then run `make vanished-target` or `make real-target`.\n"
    )
    (tmp_path / "README.md").write_text("Run `make readme-only-target`.\n")
    return tmp_path


def test_broken_references_fail(broken_tree: Path):
    result = _run("--root", str(broken_tree))
    assert result.returncode == 1
    assert "nonexistent_module" in result.stderr
    assert "scripts/gone.py" in result.stderr
    assert "analysis/gone.py" in result.stderr
    assert "perf/gone.py" in result.stderr
    assert "vanished-target" in result.stderr
    assert "README.md: unknown make target 'readme-only-target'" in result.stderr
    assert "real-target" not in result.stderr

    # Module references are checked even outside code spans.
    (broken_tree / "docs" / "BAD.md").write_text("prose repro.not_a_module here\n")
    result = _run("--root", str(broken_tree))
    assert result.returncode == 1
    assert "not_a_module" in result.stderr


def test_prose_words_are_not_false_positives(tmp_path: Path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "Makefile").write_text("ok:\n\ttrue\n")
    (tmp_path / "docs" / "GOOD.md").write_text(
        "This page lists make targets and measures docs/second in prose.\n"
        "Run `make ok`; results land in `perf/out/result.json`.\n"
    )
    result = _run("--root", str(tmp_path))
    assert result.returncode == 0, result.stderr


def test_pr_heading_fails(tmp_path: Path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "X.md").write_text(
        "# Title\n\nIntro.\n\n## PR 12: something\n\nBody.\n"
    )
    result = _run("--root", str(tmp_path))
    assert result.returncode == 1
    assert "X.md:5: heading names a PR '## PR 12: something'" in result.stderr


def test_pr_number_in_prose_or_code_is_allowed(tmp_path: Path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "X.md").write_text(
        "# Title\n\nPR 12 did X; see CHANGES.md.\n\n```sh\n# PR 12 did X\n```\n"
    )
    result = _run("--root", str(tmp_path))
    assert result.returncode == 0, result.stderr


def test_missing_docs_dir_fails(tmp_path: Path):
    result = _run("--root", str(tmp_path))
    assert result.returncode == 1

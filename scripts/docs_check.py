#!/usr/bin/env python
"""Fail when docs reference modules, files or Make targets that don't exist.

``make docs-check`` (and ``tests/unit/test_docs_check.py``, which runs in
the tier-1 suite) scans every ``docs/*.md`` and the root ``README.md`` for:

* dotted module references (``repro.storage.docstore`` or
  ``repro.storage.docstore.ShardedDatabase``) — the module must exist
  under ``src/``; one trailing attribute is resolved by import;
* repo-relative file paths (``src/…``, ``scripts/…``, ``tests/…``,
  ``docs/…``, ``benchmarks/…``, ``examples/…``, ``perf/…`` and
  ``BENCHMARK.json``) — the file must exist; ``perf/out/…`` is where
  benchmark runs write and is git-ignored, so it is not a reference;
* Make target references (``make bench-smoke``) — the target must be
  defined in the Makefile.

Exit status 0 when every reference resolves, 1 otherwise (one line per
broken reference). Use ``--docs-dir``/``--root`` to point the checker at
another tree (the negative tests do).
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
PATH_RE = re.compile(
    r"\b(?:(?:(?:src|scripts|tests|docs|benchmarks|examples)/|perf/(?!out\b))[A-Za-z0-9_./-]+"
    r"|BENCHMARK\.json|Makefile|README\.md|ROADMAP\.md|CHANGES\.md"
    r"|PAPER\.md|PAPERS\.md|SNIPPETS\.md)"
)
MAKE_RE = re.compile(r"\bmake\s+([a-z][a-z0-9-]*)")


def makefile_targets(root: Path) -> set:
    targets = set()
    makefile = root / "Makefile"
    if not makefile.exists():
        return targets
    for line in makefile.read_text().splitlines():
        match = re.match(r"^([A-Za-z0-9_.-]+)\s*:", line)
        if match and not line.startswith("."):
            targets.add(match.group(1))
    return targets


def module_exists(root: Path, dotted: str) -> bool:
    """True when *dotted* names a module/package, or one attribute deep."""
    parts = dotted.split(".")
    for depth in (len(parts), len(parts) - 1):
        if depth < 1:
            continue
        candidate = root / "src" / Path(*parts[:depth])
        as_module = candidate.with_suffix(".py")
        as_package = candidate / "__init__.py"
        if as_module.exists():
            if depth == len(parts):
                return True
            return _attribute_exists(".".join(parts[:depth]), parts[depth])
        if as_package.exists():
            if depth == len(parts):
                return True
            return _attribute_exists(".".join(parts[:depth]), parts[depth])
    return False


def _attribute_exists(module_name: str, attribute: str) -> bool:
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        module = importlib.import_module(module_name)
    except Exception:  # noqa: BLE001 - an unimportable module is a failure
        return False
    return hasattr(module, attribute)


_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_SPAN_RE = re.compile(r"`[^`\n]+`")


def _code_text(text: str) -> str:
    """The markdown's code regions (fenced blocks + inline spans).

    File paths and make targets are only *checked* where they appear as
    code — prose like "docs/second" or "make targets" stays prose.
    Dotted module references are unambiguous and are checked everywhere.
    """
    regions = _FENCE_RE.findall(text)
    regions.extend(_SPAN_RE.findall(text))
    return "\n".join(regions)


def check_file(path: Path, root: Path, targets: set) -> list:
    errors = []
    text = path.read_text()
    code = _code_text(text)
    for dotted in sorted(set(MODULE_RE.findall(text))):
        if not module_exists(root, dotted):
            errors.append(f"{path.name}: unknown module reference {dotted!r}")
    for file_reference in sorted(set(PATH_RE.findall(code))):
        candidate = root / file_reference.rstrip("/.,")
        if not candidate.exists():
            errors.append(f"{path.name}: missing file reference {file_reference!r}")
    for target in sorted(set(MAKE_RE.findall(code))):
        if target not in targets:
            errors.append(f"{path.name}: unknown make target {target!r}")
    return errors


def run(root: Path, docs_dir: Path) -> int:
    if not docs_dir.is_dir():
        print(f"docs-check: no docs directory at {docs_dir}", file=sys.stderr)
        return 1
    documents = sorted(docs_dir.glob("*.md"))
    if not documents:
        print(f"docs-check: no markdown files under {docs_dir}", file=sys.stderr)
        return 1
    readme = root / "README.md"
    if readme.exists():
        documents.append(readme)
    targets = makefile_targets(root)
    errors = []
    for path in documents:
        errors.extend(check_file(path, root, targets))
    for error in errors:
        print(f"docs-check: {error}", file=sys.stderr)
    if not errors:
        print(f"docs-check: {len(documents)} file(s) OK")
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=REPO_ROOT, help="repo root")
    parser.add_argument(
        "--docs-dir", type=Path, default=None, help="docs directory (default <root>/docs)"
    )
    args = parser.parse_args()
    docs_dir = args.docs_dir if args.docs_dir is not None else args.root / "docs"
    return run(args.root, docs_dir)


if __name__ == "__main__":
    sys.exit(main())

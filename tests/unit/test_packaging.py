"""``setup.py`` names and versions the package it builds, and the package
holds the running system only."""

import importlib
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_setup_py_names_the_package_and_its_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    name, version = result.stdout.split()[-2:]
    assert name != "UNKNOWN"
    assert version == repro.__version__


def _package_modules():
    package = REPO_ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_package_ships_no_analyzer():
    """The information-flow analyzer is a development tool beside the
    package, not part of the running system."""
    assert "repro.analysis" not in set(_package_modules())
    assert not list((REPO_ROOT / "src" / "repro" / "analysis").glob("*.py"))


def test_package_ships_no_model_layer():
    assert "repro.storage.couchrest" not in set(_package_modules())
    assert not hasattr(importlib.import_module("repro.storage"), "Model")


def test_every_package_module_imports():
    modules = list(_package_modules())
    assert "repro" in modules and "repro.storage.docstore" in modules
    for name in modules:
        importlib.import_module(name)

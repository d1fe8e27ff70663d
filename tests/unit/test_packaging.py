"""``setup.py`` names and versions the package it builds."""

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

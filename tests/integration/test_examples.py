"""The runnable examples still run: each exits 0 as a fresh process.

``examples/vulnerability_injection.py`` runs in CI's security job; the
others are checked here, so a signature change they depend on fails the
suite instead of the next person who tries the demo.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

EXAMPLES = ("quickstart.py", "mdt_portal.py", "federation.py", "financial_audit.py")


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr

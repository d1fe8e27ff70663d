#!/usr/bin/env python
"""Run the static information-flow analyzer (see docs/ANALYSIS.md)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())

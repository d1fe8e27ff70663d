"""Package metadata for the SafeWeb reproduction (the ``repro`` package).

The metadata lives here, in a plain ``setup.py``, so the package also
installs where the ``wheel`` package is missing and PEP 660 editable
installs cannot build: ``pip install -e .`` then falls back to
``setup.py develop``. The version is read from ``src/repro/__init__.py``
without importing the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

SOURCE = Path(__file__).resolve().parent / "src"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', (SOURCE / "repro" / "__init__.py").read_text(), re.MULTILINE
).group(1)

setup(
    name="safeweb-repro",
    version=VERSION,
    description="SafeWeb: an IFC middleware for securing web applications (a reproduction)",
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages(where=str(SOURCE)),
)

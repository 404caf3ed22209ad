"""Setuptools entry point; the project metadata is declared here.

There is no ``pyproject.toml``: a plain ``setup.py`` keeps ``pip install -e .``
working on minimal environments (no ``wheel`` package, no network for build
isolation) via the legacy setuptools editable install.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

ROOT = Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="bounded-query-rewriting",
    version=VERSION,
    description=(
        "Executable reproduction of 'Bounded Query Rewriting Using Views' "
        "(Cao, Fan, Geerts, Lu; PODS 2016 / TODS 43(1))"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)

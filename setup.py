"""Packaging for the ``repro`` library (the sources live under ``src/``).

The library itself needs only the standard library; ``networkx`` backs a
few structural helpers and test oracles and is an optional extra.  Install
with ``pip install .`` (or ``pip install -e .`` for development); check the
metadata with ``python setup.py --name --version``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Data conflict resolution using trust mappings: Algorithm 1, the "
        "Skeptic Algorithm 2, bulk SQL resolution and incremental maintenance"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={
        "graphs": ["networkx"],
        "test": ["networkx", "hypothesis", "pytest", "pytest-benchmark"],
    },
)

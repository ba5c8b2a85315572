"""Packaging for the ``repro`` library (``src`` layout).

``pip install -e .`` or ``python setup.py develop`` installs it; the
tests and CI run from source with ``PYTHONPATH=src`` instead.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)

"""Legacy shim for environments without PEP-517 wheel support."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# The one version string lives in the package; read it without importing
# (importing repro needs numpy, which a build environment may not have).
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "TreeP: a tree-based P2P network architecture (CLUSTER 2005) — "
        "full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.lint": ["layers.toml"]},
    python_requires=">=3.11",
    install_requires=["numpy>=1.24"],
)

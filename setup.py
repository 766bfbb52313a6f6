"""Setup shim.

This environment has no network and no ``wheel`` package, so PEP 517
editable installs are unavailable; this shim lets ``pip install -e .`` fall
back to the legacy ``setup.py develop`` path.  This file is the only
packaging metadata the repo has.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "ProBFT: Probabilistic Byzantine Fault Tolerance (PODC 2024) - "
        "full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)

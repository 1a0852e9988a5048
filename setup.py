"""Setuptools packaging metadata (the project has no ``pyproject.toml``).

``pip install -e .`` installs the ``repro`` package from ``src/`` and the
``repro-campaign`` command; the tests and examples need no install and run
with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Substrate noise impact simulation methodology for analog/RF circuits "
        "including interconnect resistance (reproduction of Soens et al., DATE 2005)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={
        "console_scripts": [
            "repro-campaign=repro.studies.cli:main",
        ],
    },
)

"""Setuptools shim.

The canonical project metadata lives in ``pyproject.toml``; this file exists
so that ``pip install -e .`` also works on minimal offline environments where
the ``wheel`` package (needed for PEP 660 editable wheels) is unavailable and
pip falls back to the legacy ``setup.py develop`` code path.
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

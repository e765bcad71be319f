"""Packaging for the SynDCIM reproduction.

``pip install -e .`` puts ``repro`` on the path (no PYTHONPATH tricks)
and installs the ``syndcim`` console script, an alias for
``python -m repro``.
"""

import pathlib
import re

from setuptools import find_packages, setup


def _version() -> str:
    init = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
    match = re.search(
        r'__version__ = "([^"]+)"', init.read_text(encoding="utf-8")
    )
    if not match:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="syndcim-repro",
    version=_version(),
    description=(
        "Reproduction of SynDCIM (DATE 2025): a performance-aware "
        "digital computing-in-memory compiler with multi-spec-oriented "
        "subcircuit synthesis, batch design-space exploration and a "
        "persistent result cache"
    ),
    long_description=(pathlib.Path(__file__).parent / "README.md").read_text(
        encoding="utf-8"
    ),
    long_description_content_type="text/markdown",
    url="https://arxiv.org/abs/2411.16806",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
    ],
    extras_require={
        "dev": [
            "hypothesis",
            "pytest",
            "pytest-benchmark",
            "pytest-cov",
            "ruff",
        ],
    },
    entry_points={
        "console_scripts": [
            "syndcim = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)

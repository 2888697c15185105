"""Setuptools shim.

The package has no build step and no other packaging metadata: run it
from a checkout with ``PYTHONPATH=src`` on Python 3.10+ (the serving
records use ``dataclass(slots=True)``).  ``import repro`` needs
``numpy`` at runtime; the test suite (``python -m pytest``) also needs
``pytest``, ``pytest-benchmark`` and ``hypothesis``.  This file only
keeps legacy editable installs (``pip install -e . --no-use-pep517``)
working on systems without the ``wheel`` package or network access.
"""

from setuptools import setup

setup()

"""``setup.py`` describes the package it sits next to.

``pip install -e .`` used to install an empty ``UNKNOWN 0.0.0``: the
metadata had been left in a ``pyproject.toml`` that does not exist.
Offline checks only — nothing is built or downloaded.
"""

import os
import subprocess
import sys

from setuptools import find_packages

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_py_names_and_versions_the_package():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        capture_output=True, text=True, timeout=120, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro", repro.__version__]


def test_find_packages_lists_every_package_directory():
    src = os.path.join(REPO, "src")
    on_disk = {
        os.path.relpath(dirpath, src).replace(os.sep, ".")
        for dirpath, _dirnames, filenames in os.walk(
            os.path.join(src, "repro"))
        if "__init__.py" in filenames
    }
    assert "repro.distributed.multiproc" in on_disk
    assert set(find_packages(src)) == on_disk

"""``setup.py`` describes the package it sits next to.

``pip install -e .`` used to install an empty ``UNKNOWN 0.0.0``: the
metadata had been left in a ``pyproject.toml`` that does not exist.
Offline checks only — nothing is built or downloaded.  Also: what CI
runs is in the tree.
"""

import os
import re
import subprocess
import sys

import pytest
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


def test_every_repo_path_ci_names_exists_and_is_not_ignored():
    """``.gitignore``'s ``trace_a_run.*`` once matched
    ``examples/trace_a_run.py``: the file never reached the tree while the
    ``observability-smoke`` job went on executing it."""
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as fh:
        named = sorted({
            path.rstrip(".") for path in re.findall(
                r"\b(?:examples|tests|benchmarks)/[\w./-]+", fh.read())})
    assert "examples/trace_a_run.py" in named
    missing = [p for p in named if not os.path.exists(os.path.join(REPO, p))]
    assert not missing, f"ci.yml names paths that do not exist: {missing}"
    if not os.path.isdir(os.path.join(REPO, ".git")):
        pytest.skip("not a git checkout: cannot ask git what is ignored")
    # --no-index: match the ignore patterns even for a file someone
    # force-added; prints (and exits 0) only for ignored paths.
    proc = subprocess.run(["git", "check-ignore", "--no-index", *named],
                          capture_output=True, text=True, timeout=60,
                          cwd=REPO)
    assert proc.returncode == 1 and not proc.stdout, (
        f"ci.yml names git-ignored paths: {proc.stdout.split()}")

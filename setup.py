"""Package metadata — all of it lives here (there is no pyproject.toml).

A plain ``setup.py`` so ``pip install -e . --no-build-isolation
--no-use-pep517`` works on air-gapped machines that lack the ``wheel``
package (PEP 660 editable installs require building a wheel; ``setup.py
develop`` does not).  ``tests/test_packaging.py`` checks the name and that
every package directory under ``src/repro`` is listed.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # keep in step with repro.__version__
    description="SALIENT++ reproduction: VIP caching analysis and "
                "communication-efficient distributed GNN training",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)

"""ruff ``F401`` (unused import), approximated with the stdlib ``ast``.

``ruff.toml`` selects ``F401`` / ``F841`` for the CI ``lint`` job, but ruff
is not installed in every sandbox this suite runs in — so the import half
of that gate ships as a tier-1 test.  Same judgement calls as ruff: a name
listed in the module's ``__all__`` is a re-export, a ``# noqa`` on the
import statement exempts it, names inside string annotations count as uses.
It is file-level (a name used anywhere in the module counts), so it can
miss an unused function-local import ruff would catch; it cannot flag a
used one.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src/repro", "tests", "benchmarks", "examples")


def python_files():
    for tree in TREES:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO, tree)):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), REPO)


def unused_imports(source: str):
    """``[(lineno, bound name)]`` imported by ``source`` and never used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation ("EventTrace", "Optional[Foo]")
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
        elif (isinstance(node, ast.Assign) and isinstance(node.value,
                                                          (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted((lineno, name) for name, lineno in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_imports():
    found = {}
    for path in python_files():
        with open(os.path.join(REPO, path), encoding="utf-8") as fh:
            unused = unused_imports(fh.read())
        if unused:
            found[path] = unused
    assert not found, f"imported but unused: {found}"


def test_the_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np  # noqa: F401\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "from pkg import kept, dropped, exported\n"
        "__all__ = ['exported']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [kept(x), sys.argv]\n"
    )
    assert unused_imports(source) == [
        (2, "os"), (4, "TYPE_CHECKING"), (5, "dropped")]

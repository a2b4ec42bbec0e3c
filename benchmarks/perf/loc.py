#!/usr/bin/env python
"""Count the code lines of ``src/repro``: non-blank, non-comment,
non-docstring lines of every ``.py`` file.

This is the count ROADMAP's line gate is read with.  A line counts when it
holds at least one token other than a comment, a line break or an
indentation change, and that token is not part of a docstring (the
leading string statement of a module, class or function).

Usage (from the repo root)::

    python benchmarks/perf/loc.py                # total for src/repro
    python benchmarks/perf/loc.py --per-file     # one line per file, then the total
    python benchmarks/perf/loc.py PATH           # another source tree
"""

import argparse
import ast
import io
import os
import sys
import tokenize

_REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count_tree(root: str) -> dict:
    """``{relative path: code lines}`` for every ``.py`` file under ``root``."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, root)] = code_lines(fh.read())
    return out


def src_code_lines(root: str = os.path.join(_REPO_ROOT, "src", "repro")) -> int:
    """Total code lines of ``src/repro`` (or of ``root``)."""
    return sum(count_tree(root).values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?",
                        default=os.path.join(_REPO_ROOT, "src", "repro"),
                        help="source tree to count (default: src/repro)")
    parser.add_argument("--per-file", action="store_true",
                        help="print each file's count before the total")
    args = parser.parse_args(argv)
    counts = count_tree(args.root)
    if args.per_file:
        for path, n in counts.items():
            print(f"{n:>6}  {path}")
    print(f"src_code_lines {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

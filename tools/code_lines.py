#!/usr/bin/env python3
"""Count code lines: ``python tools/code_lines.py <paths...>``.

A physical line counts when it carries a token other than a comment and
is not part of a docstring (blank lines, comment-only lines and
module/class/function docstrings do not count).  Directories are walked
for ``*.py``.  Prints one line per argument and a total, so a
simplicity PR's "N -> M lines" claim is one reproducible command.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def python_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    found = []
    for root, _dirs, names in os.walk(path):
        found.extend(os.path.join(root, n) for n in names if n.endswith(".py"))
    return sorted(found)


def count_path(path: str) -> int:
    total = 0
    for name in python_files(path):
        with open(name, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    return total


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    missing = [path for path in argv if not os.path.exists(path)]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    counts = [(path, count_path(path)) for path in argv]
    for path, count in counts:
        print(f"{count:7d}  {path}")
    if len(counts) > 1:
        print(f"{sum(count for _, count in counts):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

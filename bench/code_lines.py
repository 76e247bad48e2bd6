"""Count the code lines of every Python module in a directory.

A line is a code line when it holds a token that is not a comment, a
newline or indentation, and is not part of a module, class or function
docstring.  So blank lines, comment lines and docstrings do not count,
while every line of a multi-line statement or of a string that is not a
docstring does.

    python bench/code_lines.py src/meltpool_rl

prints JSON: each module's count (by file stem, largest first) and the
total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers (1-based) taken by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def count_dir(directory: str) -> dict:
    """Each module's code lines in directory, largest first, and the total."""
    counts = {path.stem: code_lines(path.read_text())
              for path in sorted(Path(directory).glob("*.py"))}
    modules = dict(sorted(counts.items(), key=lambda item: -item[1]))
    return {"modules": modules, "total": sum(counts.values())}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python bench/code_lines.py <dir>")
    print(json.dumps(count_dir(sys.argv[1]), indent=2))

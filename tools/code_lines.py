"""Count the code lines of Python source: no blank lines, no comments and
no docstrings.

A line counts when a token other than a comment, a line break or an
indent sits on it (tokenize); a string that spans lines counts on each
line it spans, unless it is a docstring (ast: the first statement of a
module, class or function, when it is a string).

    python tools/code_lines.py [PATH ...]

prints the count of each .py file under the paths (default src/memtrace),
then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at `path`."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src/memtrace")]
    files = sorted(path for root in roots for path in (
        [root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

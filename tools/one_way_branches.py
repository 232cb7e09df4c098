"""List the if and while statements of src/memtrace that a test run takes
one way only.

    PYTHONPATH=src python tools/one_way_branches.py [PYTEST ARGS ...]

runs pytest in this process, with the arguments given, under a line
tracer (sys.settrace) that watches the frames of the code in
src/memtrace.  Each time the test of an `if` or `while` statement runs,
the next line its frame runs tells which way it went: a line of the
statement's body means the body ran; any other line, or the frame's
return, means it did not.  An exception raised in the test decides
nothing.  After the run it prints, one a line and in file order, each
statement whose test ran and whose body then ran every time or never:

    src/memtrace/cli.py:270: body never ran: if __name__ == "__main__":

A branch a run takes one way only is a branch no test pins the other
way: either a test is missing, or the branch cannot change an output.
A statement whose test never ran is not listed, nor one whose test is a
constant.  The exit code is pytest's.  The tracer makes the run two to
three times as long as a plain one.  The tool needs only the standard
library and pytest.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "memtrace"


def branches(path: Path) -> dict[int, tuple[range, range]]:
    """First line -> (the lines of its test, the lines of its body), for
    each if and while statement in the file whose test is no constant."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, (ast.If, ast.While))
                and not isinstance(node.test, ast.Constant)):
            found[node.lineno] = (
                range(node.lineno, node.test.end_lineno + 1),
                range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return found


class Tracer:
    """sys.settrace's function: it gives each frame of a file in PACKAGE
    a line tracer and notes in `ran[(path, line)]` each way the
    statement at that line went (True: its body ran)."""

    def __init__(self):
        # Code file name -> (its path, its branches), or None outside
        # PACKAGE.
        self.files: dict[str, tuple[Path, dict] | None] = {}
        self.ran: dict[tuple[Path, int], set[bool]] = defaultdict(set)

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.files:
            path = Path(name).resolve()
            self.files[name] = ((path, branches(path)) if path.parent == PACKAGE
                                and path.suffix == ".py" else None)
        found = self.files[name]
        return None if found is None else self._frame_tracer(*found)

    def _frame_tracer(self, path: Path, table: dict):
        ran = self.ran
        pending = None  # (first line, test lines, body lines) of a test that ran

        def trace(frame, event, arg):
            nonlocal pending
            if event == "line":
                line = frame.f_lineno
                if pending is not None:
                    first, test, body = pending
                    if line in test:
                        return trace
                    ran[path, first].add(line in body)
                    pending = None
                if line in table:
                    pending = (line, *table[line])
            elif event == "return" and pending is not None:
                ran[path, pending[0]].add(False)
                pending = None
            elif event == "exception":
                pending = None
            return trace

        return trace


def main(argv: list[str]) -> int:
    tracer = Tracer()
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    for (path, line), ways in sorted(tracer.ran.items()):
        if len(ways) == 1:
            text = path.read_text(encoding="utf-8").splitlines()[line - 1]
            how = "always ran" if True in ways else "never ran"
            print(f"{path.relative_to(ROOT)}:{line}: body {how}: "
                  f"{text.strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The tools behind each change's numbers: code_lines' count of code
lines and the branch table of one_way_branches, the CI gate."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    """The module tools/<name>.py; tools is no package."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load("code_lines")
one_way_branches = load("one_way_branches")


def write(tmp_path, source):
    path = tmp_path / "fixture.py"
    path.write_text(source, encoding="utf-8")
    return path


CODE = '''"""A module docstring,
over two lines."""

# A comment, then a blank line.

import os  # a code line with a comment


class Shape:
    """A class docstring."""

    def area(self):
        """A function
        docstring."""
        text = """a string
that spans
three lines"""
        return text, os.sep

    side = 1
'''


def test_code_lines_counts_code_alone(tmp_path):
    """The import, the class and def lines, three for the string that is
    no docstring, the return and the assignment: 8."""
    assert code_lines.code_lines(write(tmp_path, CODE)) == 8


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    path = write(tmp_path, CODE)
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == f"     8  {path}\n     8  total\n"


BRANCHES = '''def f(x):
    if x:
        y = 1
    elif (x
          > 2):
        y = 2
        y += 1
    while x:
        x -= 1
    if True:
        pass
    while 1:
        break
    return y
'''


def test_branches_finds_each_if_and_while(tmp_path):
    """Each if, elif and while, by its first line, with the lines of its
    test and of its body; a constant test is skipped."""
    assert one_way_branches.branches(write(tmp_path, BRANCHES)) == {
        2: (range(2, 3), range(3, 4)),
        4: (range(4, 6), range(6, 8)),
        8: (range(8, 9), range(9, 10)),
    }

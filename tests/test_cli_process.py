"""The CLI's process-level contract, one row per case: the exit code (0
success or match, 1 no match, 2 usage or parse error), the bytes of stdout
and stderr, and no traceback, which in-process tests cannot see and which
exits 1, the no-match code.  Run alone: `pytest tests/test_cli_process.py`.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import memtrace

DATA = Path(__file__).parent / "data"
SRC = str(Path(memtrace.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")  # no usage line wraps


def data(name):
    return (DATA / name).read_bytes()


def lines(*rows):
    return "".join(row + "\n" for row in rows).encode()


TRACE, MODEL = data("golden.trace"), data("golden.model")
HEADER = TRACE.split(b"\n")[0].decode()  # the module range and ten columns
OPS = ['{"entry_page": 1025, "sp_init": "0x7ff000"}', '{"op": "nop"}']


def error(line, text=""):
    """One line of stderr, starting `error: line <line>: <text>`."""
    return (f"error: line {line}: {text}", 1)


def case(id, argv, code=0, out=None, err="", **files):
    """Run `argv` beside a copy of tests/data and `files`, where a file
    given as text is what that command line writes to stdout.  `out` is
    stdout (None: any); `err` is stderr, or a pattern its start matches and
    its line count."""
    return pytest.param(argv.split(), code, out, err, files, id=id)


CASES = [
    # Pinned outputs.  Data written to stdout is only the data: the count
    # goes to stderr then.
    case("simulate", "simulate golden.model", out=TRACE, err="30 events\n"),
    case("sign", "sign golden.trace", out=data("golden.sig"),
         err="21 offsets\n"),
    case("bases", "bases golden.trace", out=data("golden.bases")),
    case("bases-of-stdout", "bases t", out=data("golden.bases"),
         t="simulate golden.model"),
    case("match-of-stdout", "match s golden.sig", out=lines(
        '{"L": 21, "I": 20, "ratio": 1.0, "verdict": "match"}'),
        s="sign golden.trace"),
    case("reconstruct", "reconstruct golden.trace --base 0x9000",
         out=data("golden.layout")),
    # A size of 0 spans the default 0x1000 window, as it does in an
    # allocation record, the size bases prints for a call-param base.
    case("reconstruct-size-0",
         "reconstruct golden.trace --base 0x9000 --size 0",
         out=data("golden.layout")),
    case("flags", "flags golden.trace", out=b""),
    case("flags-rules", "flags golden.trace --rules golden.rules",
         out=data("golden.flags")),
    case("diff-same", "diff golden.sig golden.sig", out=lines(
        '{"matched": [[[0, 21], [0, 21]]], "unmatched": []}')),
    # golden-edit.sig is golden.sig with offset 10 moved out of reach.
    case("match-edit", "match golden.sig golden-edit.sig", 1,
         data("golden.match")),
    case("diff-edit", "diff golden.sig golden-edit.sig --threshold 0.4",
         out=data("golden.diff")),
    # A trailing blank line and CRLF line ends change nothing.
    case("blank-trace", "bases t", out=data("golden.bases"), t=TRACE + b"\n"),
    case("blank-model", "simulate m", out=TRACE, err="30 events\n",
         m=MODEL + b"\n"),
    case("crlf-trace", "bases t", out=data("golden.bases"),
         t=TRACE.replace(b"\n", b"\r\n")),
    case("crlf-model", "simulate m", out=TRACE, err="30 events\n",
         m=MODEL.replace(b"\n", b"\r\n")),
    # Every ratio compares false with NaN: a usage error, not a no-match.
    *(case(f"{cmd}-nan", f"{cmd} golden.sig golden.sig --threshold nan", 2,
           b"", (f"usage: memtrace {cmd} .*\nmemtrace {cmd}: error: argument "
                 "--threshold: 'nan' is not a number\n", 2))
      for cmd in ("match", "diff")),
    # A bad input exits 2 with one line, the error, naming its line.
    case("cut-trace", "reconstruct t --base 0x9000", 2, b"",
         error(TRACE.count(b"\n")), t=TRACE[:-12]),
    case("corrupt-sig", "match s golden.sig", 2, b"", ("error: ", 1),
         s=lines('{"base": "0x0", "offsets": [true]}')),
    *(case(name, f"simulate {name}.model", 2, b"",
           f"error: op 1: address {address} (size 8) outside 48-bit "
           "canonical range\n")
      for name, address in (("noncanonical", "0x1000000000008"),
                            ("straddling", "0xfffffffffffc"))),
    case("badcpl", "simulate badcpl.model", 2, b"", error(2)),
    # The one-object-per-event format, which has no columns.
    case("one-object", "bases t", 2, b"", error(1, "header has no columns"),
         t=lines('{"module_range": {"lo": "0x401000", "hi": "0x402000"}}',
                 '{"seq": 0, "tid": 0, "cpl": "u", "kind": "w", "addr": '
                 '"0x9000", "size": 8, "rip": "0x401000", "instr": {"cat": '
                 '"int-move", "sign": "n/a", "val": "0x1"}}')),
    # The nine-column format, whose call shapes held their args.
    case("nine-columns", "bases t", 2, b"", error(1, "columns must be"),
         t=lines(HEADER.replace(', "args"', ""),
                 '[0, 0, "u", "x", "0x401000", 1, "0x401000", {"cat": '
                 '"api-call", "sign": "n/a", "callee": "malloc", "args": '
                 '[64, 0, 0, 0]}, "0x9000"]')),
    # A raw U+2028 in a callee string ends line 2 there.
    case("u2028", "bases t", 2, b"", error(2), t=lines(
        HEADER, '[0, 0, "u", "w", "0x9000", 8, "0x401000", {"cat": "call", '
        '"sign": "n/a", "callee": "ab]\u2028[cd"}, null, [0, 0, 0, 0]]')),
    case("no-hi", "bases t", 2, b"", error(1),
         t=lines(HEADER.replace(', "hi": "0x402000"', ""))),
    case("split-op", "simulate m", 2, b"", error(3),
         m=lines(*OPS, '{"op": "mov-write",', '"addr": "0x3000"}')),
    case("size-3", "simulate m", 2, b"", "error: line 3: bad operand size 3\n",
         m=lines(*OPS, '{"op": "mov-write", "addr": "0x7fe000", "size": 3}')),
    case("negative", "simulate m", 2, b"",
         "error: line 3: value -1 is negative\n",
         m=lines(*OPS, '{"op": "push", "value": -1}')),
    case("empty-model", "simulate m", 2, b"", error(1), m=b""),
    # n_stack is the one op field whose work the file's size does not
    # bound; the first line is a plain chunk, which the bulk reader would
    # take but for the bound.
    case("huge-n-stack", "simulate m", 2, b"",
         "error: line 2: n_stack 1000000000000 is above 8192\n",
         m=lines(OPS[0], '{"op": "call", "n_stack": 1000000000000}')),
    case("negative-n-stack", "simulate m", 2, b"",
         "error: line 2: n_stack -1 is negative\n",
         m=lines(OPS[0], '{"op": "call", "n_stack": -1}')),
    # A signature file is one JSON object, in UTF-8.
    *(case(f"{name}-sig", "match s golden.sig", 2, b"",
           "error: a signature file holds one JSON object\n", s=text)
      for name, text in (("number", b"5\n"), ("string", b'"offsets base"\n'))),
    case("utf16-sig", "match s golden.sig", 2, b"",
         ("error: 'utf-8' codec", 1),
         s=data("golden.sig").decode().encode("utf-16")),
    # A step of no alternatives could never match.
    case("empty-step", "flags golden.trace --rules r", 2, b"",
         ("error: rule 'dead': steps must be ", 1),
         r=b'[{"name": "dead", "steps": [[]]}]'),
]


def memtrace_cli(cwd, argv):
    return subprocess.run([sys.executable, "-m", "memtrace.cli", *argv],
                          cwd=cwd, env=ENV, capture_output=True, timeout=60)


@pytest.mark.parametrize("argv, code, out, err, files", CASES)
def test_process(tmp_path, argv, code, out, err, files):
    shutil.copytree(DATA, tmp_path, dirs_exist_ok=True)
    for name, content in files.items():
        if isinstance(content, str):
            content = memtrace_cli(tmp_path, content.split()).stdout
        (tmp_path / name).write_bytes(content)
    result = memtrace_cli(tmp_path, argv)
    stderr = result.stderr.decode()
    assert "Traceback" not in stderr
    assert result.returncode == code, stderr
    assert out is None or result.stdout == out
    if isinstance(err, str):
        assert stderr == err
    else:
        assert re.match(err[0], stderr) and stderr.count("\n") == err[1]

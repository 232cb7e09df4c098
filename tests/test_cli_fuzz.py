"""Fuzz the CLI boundary: mutated input files never break the exit codes.

Each example starts from a valid seed file (model, trace, signature or
rules), replaces or inserts JSON tokens (deep nesting among them), inserts
whole lines that are not objects, flips bytes, and runs the subcommands
that read that kind of file.  `cli.main` must return, never
raise; the code must be 0, 1 or 2; and 1 ("no match") may only come from
match and diff, so a corrupt file can never pass for a negative verdict.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace.cli import main
from memtrace.guest import ModelOp, serialize_model
from memtrace.signature import write_signature
from memtrace.trace import AddressPattern

from helpers import make_model

# Nested far past the recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000
TOKENS = ["true", "null", "1.5", "-1", '"x"', "[]", "{}", "[1,2]", "1e400",
          DEEP]
# Whole lines that are valid JSON but not objects.
LINES = ["null", "5", "[]", '"x"', DEEP]
# A JSON string, number or literal: the values a mutation may replace.
VALUE = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
                   rb"|true|false|null")

SEED_OPS = [
    ModelOp("alloc", callee="malloc", size=0x40),
    ModelOp("mov-write", addr=0x9000, size=4, value=7),
    ModelOp("mov-write", addr=0x9008, size=8, value=0x9000),
    ModelOp("mov-read", addr=0x9000, size=4, sign="unsigned"),
    ModelOp("sub-sp", amount=0x40),
    ModelOp("call", callee="ConvertThreadToFiber", args=[0x9000, 2, 3, 4, 5]),
    ModelOp("call", callee="VirtualAlloc", args=[0x100], n_stack=1),
    ModelOp("xmm-zero", addr=0x3000),
    ModelOp("call", callee="CreateFiber", args=[0]),
    ModelOp("ret"),
]


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model = root / "seed.model"
    model.write_bytes(serialize_model(make_model(SEED_OPS)))
    trace = root / "seed.trace"
    assert main(["simulate", str(model), "--out", str(trace)]) == 0
    sig = root / "seed.sig"
    sig.write_bytes(write_signature(AddressPattern(
        offsets=(0, 8, 0, 16), base=0x9000, sizes=(4, 8, 4, 8))))
    rules = root / "seed.rules"
    rules.write_text(json.dumps([
        {"name": "fibers",
         "steps": ["ConvertThreadToFiber", ["VirtualAlloc", "HeapAlloc"]]},
    ]))
    return {"root": root, "model": model, "trace": trace, "sig": sig,
            "rules": rules}


def commands(kind, path, seeds):
    out = str(seeds["root"] / "out")
    trace, sig = str(seeds["trace"]), str(seeds["sig"])
    if kind == "model":
        return [["simulate", path, "--out", out]]
    if kind == "trace":
        return [["sign", path, "--out", out], ["bases", path],
                ["flags", path],
                ["reconstruct", path, "--base", "0x9000", "--size", "64",
                 "--out", out]]
    if kind == "sig":
        return [["match", path, sig], ["diff", sig, path]]
    return [["flags", trace, "--rules", path]]


def mutate(data: bytes, mutations) -> bytes:
    for action, position, token, bit in mutations:
        values = list(VALUE.finditer(data))
        if action == "replace" and values:
            match = values[position % len(values)]
            data = data[:match.start()] + token + data[match.end():]
        elif action == "insert":
            opens = [m.end() for m in re.finditer(rb"\[", data)] or [0]
            at = opens[position % len(opens)]
            data = data[:at] + token + b"," + data[at:]
        elif action == "line":
            starts = [0] + [m.end() for m in re.finditer(rb"\n", data)]
            at = starts[position % len(starts)]
            line = LINES[position % len(LINES)].encode()
            data = data[:at] + line + b"\n" + data[at:]
        elif data:
            at = position % len(data)
            data = data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:]
    return data


MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "line", "flip"]),
    st.integers(min_value=0, max_value=1 << 16),
    st.sampled_from(TOKENS).map(str.encode),
    st.integers(min_value=0, max_value=7),
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["model", "trace", "sig", "rules"]),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_inputs_keep_the_exit_code_contract(seeds, kind, mutations):
    path = seeds["root"] / f"mutated.{kind}"
    path.write_bytes(mutate(seeds[kind].read_bytes(), mutations))
    for argv in commands(kind, str(path), seeds):
        code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert argv[0] in ("match", "diff"), argv

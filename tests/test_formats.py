"""Each file format's field table: what a constructor accepts, its writer
writes and its reader reads back as the same object."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace.guest import (MODEL_OPS, ModelOp, ModelParseError,
                            ProgramModel, parse_model, serialize_model)
from memtrace.signature import DEFAULT_TAU, read_signature, write_signature
from memtrace.trace import (AccessEvent, AddressPattern, InstrDescriptor,
                            TraceError, TraceLog, parse_trace,
                            serialize_trace)

from helpers import make_model

CALL = InstrDescriptor(category="call", callee_id="Foo")


def _event(**fields):
    return AccessEvent(**{**dict(seq=0, thread_id=0, cpl="user", kind="write",
                                 address=0x9000, operand_size=8, instr=CALL,
                                 rip=0x401000), **fields})


@pytest.mark.parametrize("make, field", [
    (lambda: ModelOp("mov-write", addr=-8, value=1), "addr"),
    (lambda: ModelOp("nop", rip=-4), "rip"),
    (lambda: ModelOp("call", n_stack=True), "n_stack"),
    (lambda: ModelOp("call", n_stack="3"), "n_stack"),
    (lambda: ModelOp("call", n_stack=None), "n_stack"),
    (lambda: ModelOp("sub-sp", amount=1.5), "amount"),
    (lambda: _event(thread_id=True), "thread_id"),
    (lambda: _event(seq=1.5), "seq"),
    (lambda: _event(register_args=(True, 0, 0, 0)), "register_args"),
    (lambda: TraceLog((), (-1, 0x1000)), "module_range"),
    (lambda: TraceLog([_event(seq=2), _event(seq=2)]), "events[1]: seq"),
    (lambda: TraceLog([_event(), tuple(_event(seq=1))]), "events[1]"),
    (lambda: make_model([ModelOp("nop")], sp_init=-16), "sp_init"),
    (lambda: make_model([ModelOp("nop")], mapped=[(-0x1000, 0x1000)]),
     "mapped"),
    (lambda: make_model([ModelOp("nop")], module_range=(0x401000, -1)),
     "module_range"),
    (lambda: AddressPattern((0, 8), base=-16), "base"),
    (lambda: AddressPattern((0, 8), sizes=(4,)), "sizes"),
    (lambda: AddressPattern((True, 8)), "offsets"),
    (lambda: AddressPattern((1.5,)), "offsets"),
], ids=["op-addr", "op-rip", "n_stack-bool", "n_stack-string",
        "n_stack-none", "float-amount", "bool-tid", "float-seq", "bool-arg",
        "log-range", "log-seq-order", "log-row", "sp_init", "mapped",
        "model-range", "base", "short-sizes", "bool-offset", "float-offset"])
def test_unwritable_values_fail_at_construction(make, field):
    """Each of these was accepted, and then failed to serialize, was
    written to a file its own reader rejects, or read back as another
    value (a None n_stack as 0)."""
    with pytest.raises(ValueError, match=re.escape(field)):
        make()


def _drawn(draw, good, bad, odds=5):
    """Mostly a value of `good`, one time in `odds` one of `bad`."""
    return draw(bad if draw(st.integers(1, odds)) == 1 else good)


# Values no int field may hold: bools, floats, None, strings and lists;
# and, with them, ints that only some may hold: negative ones, and ones
# of 64 bits or more.
NOT_INT = st.one_of(st.booleans(), st.floats(allow_nan=False), st.none(),
                    st.sampled_from(["0x10", "", "user"]),
                    st.lists(st.integers(0, 3), max_size=5))
BAD = st.one_of(st.integers(-(1 << 70), -1), st.integers(1 << 64, 1 << 70),
                NOT_INT)
NUMBER = st.one_of(st.integers(0, 1 << 16), st.integers(1 << 64, 1 << 70))


def _accepted(make):
    """What `make` makes, or None where it raises the ValueError that
    names a field it rejects (never another exception)."""
    try:
        return make()
    except ValueError:
        return None


@st.composite
def logs(draw):
    """TraceLogs of AccessEvents whose seq rises, as a trace holds them,
    or None where a constructor rejected the fields drawn."""
    events, seq = [], -3
    for _ in range(draw(st.integers(0, 6))):
        seq += draw(st.integers(1, 1 << 65))
        cat = draw(st.sampled_from(["call", "api-call", "int-move", "push"]))
        instr = InstrDescriptor(cat, draw(st.sampled_from(["signed", "n/a"])))
        event = _accepted(lambda: AccessEvent(
            seq=_drawn(draw, st.just(seq), NOT_INT),
            thread_id=_drawn(draw, st.integers(-3, 1 << 70), BAD),
            cpl=draw(st.sampled_from(["user", "kernel", "root"])),
            kind=draw(st.sampled_from(["read", "write", "execute"])),
            address=_drawn(draw, NUMBER, BAD),
            operand_size=_drawn(draw, st.sampled_from([1, 2, 4, 8]), BAD),
            instr=instr,
            rip=_drawn(draw, NUMBER, BAD),
            value=_drawn(draw, st.none() | NUMBER, BAD),
            register_args=_drawn(
                draw, st.none() | st.lists(st.integers(-5, 1 << 70),
                                           min_size=4, max_size=4),
                st.lists(st.one_of(NUMBER, BAD), max_size=6))))
        if event is not None:
            events.append(event)
    module_range = _drawn(draw, st.tuples(NUMBER, NUMBER),
                          st.lists(st.one_of(NUMBER, BAD), max_size=3))
    return _accepted(lambda: TraceLog(events, module_range))


@given(log=logs())
@settings(max_examples=300, deadline=None)
def test_every_log_the_constructors_accept_reads_back(log):
    if log is not None:
        assert parse_trace(serialize_trace(log)) == log


OP_NAMES = st.sampled_from(MODEL_OPS)
# An op's fields beside its op, as it may hold them (a size of -8 only
# where it is no mov op's).
OP_VALUES = {"addr": NUMBER, "size": st.sampled_from([1, 2, 4, 8, -8]),
             "value": NUMBER, "callee": st.just("malloc"),
             "args": st.lists(NUMBER, max_size=6),
             "n_stack": st.integers(-2, 3), "amount": NUMBER,
             "cpl": st.sampled_from(["user", "kernel", "root"]),
             "cat": st.sampled_from(["int-move", "float-move", "push"]),
             "sign": st.sampled_from(["signed", "maybe"]), "rip": NUMBER}


@st.composite
def models(draw):
    """ProgramModels, or None where a constructor rejected the fields
    drawn."""
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        name = draw(OP_NAMES)
        keys = draw(st.sets(st.sampled_from(sorted(OP_VALUES)), max_size=3))
        fields = {key: _drawn(draw, OP_VALUES[key], BAD) for key in keys}
        if name in ("mov-read", "mov-write", "xmm-zero"):
            fields.setdefault("addr", draw(NUMBER))
        op = _accepted(lambda: ModelOp(name, **fields))
        if op is not None:
            ops.append(op)
    pair = st.tuples(NUMBER, NUMBER)
    wrong_pair = st.lists(st.one_of(NUMBER, BAD), max_size=3)
    return _accepted(lambda: ProgramModel(
        ops=ops,
        entry_page=_drawn(draw, st.integers(-2, 1 << 65), BAD, 12),
        sp_init=_drawn(draw, NUMBER, BAD, 12),
        tid=_drawn(draw, st.integers(-2, 1 << 65), BAD, 12),
        cpl=_drawn(draw, st.sampled_from(["user", "kernel"]), BAD, 12),
        entry_present=_drawn(draw, st.booleans(), BAD, 12),
        mapped=_drawn(draw, st.lists(pair, max_size=3),
                      st.lists(wrong_pair, min_size=1, max_size=2), 12),
        module_range=_drawn(draw, st.none() | pair, wrong_pair, 12)))


@given(model=models())
@settings(max_examples=300, deadline=None)
def test_every_model_the_constructors_accept_reads_back(model):
    if model is not None:
        assert parse_model(serialize_model(model)) == model


@st.composite
def patterns(draw):
    """AddressPatterns, or None where the constructor rejected the
    fields drawn."""
    offsets = [_drawn(draw, st.integers(-(1 << 70), 1 << 70), BAD)
               for _ in range(draw(st.integers(0, 6)))]
    sizes = _drawn(draw, st.none() | st.just([8] * len(offsets)),
                   st.lists(st.one_of(NUMBER, BAD), max_size=7))
    base = _drawn(draw, NUMBER, BAD)
    return _accepted(lambda: AddressPattern(offsets, base, sizes))


@given(pattern=patterns())
@settings(max_examples=300, deadline=None)
def test_every_pattern_the_constructor_accepts_reads_back(pattern):
    if pattern is not None:
        assert read_signature(write_signature(pattern)) == (pattern,
                                                            DEFAULT_TAU)


# -- what a reader accepts is written again to a file it accepts --------

# Spellings of a number in a file: JSON ints, 0x-hex strings (and bad
# ones), bools, floats, null and lists.
SPELLED = st.one_of(st.integers(-(1 << 70), 1 << 70),
                    st.integers(0, 1 << 70).map(hex),
                    st.sampled_from(["0x-8", "8", "0x", "0xg"]),
                    st.booleans(), st.floats(allow_nan=False), st.none(),
                    st.lists(st.integers(0, 3), max_size=5))
HEX_SPELLED = st.integers(0, 1 << 70).map(hex)
INT_SPELLED = st.integers(-(1 << 70), 1 << 70) | HEX_SPELLED


def _reads_again(read, write, data):
    """Where `read` accepts `data`, what `write` makes of its result
    reads back to the same result."""
    try:
        got = read(data)
    except (TraceError, ModelParseError, ValueError):
        return
    assert read(write(got)) == got


def _spelled(draw, good):
    """Mostly a spelling `good` draws, one time in eight any other."""
    return _drawn(draw, good, SPELLED, 8)


@st.composite
def trace_files(draw):
    lines = [json.dumps({"module_range": {"lo": _spelled(draw, HEX_SPELLED),
                                          "hi": _spelled(draw, HEX_SPELLED)},
                         "columns": ["seq", "tid", "cpl", "kind", "addr",
                                     "size", "rip", "instr", "val",
                                     "args"]})]
    seq = 0
    for _ in range(draw(st.integers(0, 6))):
        seq += draw(st.integers(1, 1 << 65))
        cat = draw(st.sampled_from(["call", "int-move"]))
        args = st.lists(INT_SPELLED, min_size=4, max_size=4)
        lines.append(json.dumps([
            seq, _spelled(draw, st.integers(-3, 1 << 70)),
            _drawn(draw, st.sampled_from(["u", "k"]), st.just("x"), 8),
            _drawn(draw, st.sampled_from(["r", "w"]), st.just("x"), 8),
            _spelled(draw, HEX_SPELLED),
            _drawn(draw, st.sampled_from([1, 8]),
                   st.sampled_from([16, True, 8.0]), 8),
            "0x401000", {"cat": cat, "sign": "n/a"},
            _spelled(draw, st.none() | HEX_SPELLED),
            _spelled(draw, args if cat == "call" else st.none())]))
    return "\n".join(lines)


@given(data=trace_files())
@settings(max_examples=300, deadline=None)
def test_every_trace_the_reader_accepts_is_written_readably(data):
    _reads_again(parse_trace, serialize_trace, data)


@st.composite
def model_files(draw):
    pair = st.lists(INT_SPELLED, min_size=2, max_size=2)
    header = {"entry_page": _spelled(draw, INT_SPELLED),
              "sp_init": _spelled(draw, INT_SPELLED)}
    for key, good in [("tid", INT_SPELLED),
                      ("cpl", st.sampled_from(["user", "kernel"])),
                      ("entry_present", st.booleans()),
                      ("mapped", st.lists(pair, max_size=2)),
                      ("module_range", st.fixed_dictionaries(
                          {"lo": HEX_SPELLED, "hi": HEX_SPELLED}))]:
        if draw(st.booleans()):
            header[key] = _spelled(draw, good)
    lines = [json.dumps(header)]
    for _ in range(draw(st.integers(0, 5))):
        record = {"op": draw(OP_NAMES)}
        if record["op"] in ("mov-read", "mov-write", "xmm-zero"):
            record["addr"] = draw(HEX_SPELLED)
        keys = draw(st.sets(st.sampled_from(
            ["addr", "value", "rip", "size", "amount", "n_stack", "args"]),
            max_size=3))
        for key in keys:
            good = (st.lists(INT_SPELLED, max_size=6) if key == "args"
                    else st.sampled_from([1, 2, 4, 8]) if key == "size"
                    else INT_SPELLED)
            record[key] = _spelled(draw, good)
        lines.append(json.dumps(record))
    return "\n".join(lines)


@given(data=model_files())
@settings(max_examples=300, deadline=None)
def test_every_model_the_reader_accepts_is_written_readably(data):
    _reads_again(parse_model, serialize_model, data)


@st.composite
def signature_files(draw):
    offsets = _spelled(draw, st.lists(INT_SPELLED, max_size=6))
    record = {"base": _spelled(draw, HEX_SPELLED), "offsets": offsets}
    if draw(st.booleans()):
        record["sizes"] = _spelled(draw, st.just(
            [8] * len(offsets) if isinstance(offsets, list) else None))
    if draw(st.booleans()):
        record["tau_default"] = _spelled(draw, st.integers(0, 1 << 70))
    return json.dumps(record)


@given(data=signature_files())
@settings(max_examples=300, deadline=None)
def test_every_signature_the_reader_accepts_is_written_readably(data):
    _reads_again(read_signature, lambda read: write_signature(*read), data)

import copy
import dataclasses
import gc
import io
import json
import pickle
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace import guest as guest_mod
from memtrace import trace
from memtrace.guest import (ModelOp, ModelParseError, SimulationError,
                            parse_model, serialize_model)
from memtrace.trace import (
    AccessEvent,
    InstrDescriptor,
    TraceLog,
    TraceOrderError,
    TraceParseError,
    parse_trace,
    serialize_trace,
    split_by_thread,
)

from helpers import (
    assert_built_as_constructed,
    capture_mix_ops,
    make_model,
    random_event,
    random_log,
    reference_parse_trace,
    reference_serialize_trace,
    run_model,
)


def make_event(seq=0, **kwargs):
    defaults = dict(
        thread_id=0, cpl="user", kind="read", address=0x1000,
        operand_size=8, instr=InstrDescriptor(category="int-move"),
        rip=0x401000,
    )
    defaults.update(kwargs)
    return AccessEvent(seq=seq, **defaults)


HEADER = {"module_range": {"lo": "0x0", "hi": "0x1000"},
          "columns": list(trace.COLUMNS)}


class TestEventInvariants:
    def test_execute_operand_size_fixed(self):
        with pytest.raises(ValueError):
            make_event(kind="execute", operand_size=8,
                       instr=InstrDescriptor(category="other"))

    def test_operand_size_16_only_for_xmm(self):
        with pytest.raises(ValueError):
            make_event(operand_size=16)
        make_event(kind="write", operand_size=16,
                   instr=InstrDescriptor(category="xmm-zero-store"))

    def test_float_move_sizes(self):
        with pytest.raises(ValueError):
            make_event(operand_size=2,
                       instr=InstrDescriptor(category="float-move"))

    def test_callee_requires_call_category(self):
        with pytest.raises(ValueError):
            InstrDescriptor(category="int-move", callee_id="Foo")

    def test_callee_must_be_a_string(self):
        """A descriptor with the callee_id 1 once wrote the shape
        `"callee": 1`, which parse_trace rejects."""
        with pytest.raises(ValueError, match="^callee_id 1 is not a string$"):
            InstrDescriptor(category="call", callee_id=1)

    @pytest.mark.parametrize("args", [("a", "b", "c", "d"), (1.0, 0, 0, 0),
                                      (0, 0, 0, None)],
                             ids=["strings", "float", "none"])
    def test_register_args_must_be_integers(self, args):
        """An event with the register_args ("a", "b", "c", "d") once
        wrote the args cell `["a", "b", "c", "d"]`, which parse_trace
        rejects."""
        with pytest.raises(ValueError, match="must be integers$"):
            make_event(kind="write", instr=InstrDescriptor(category="call"),
                       register_args=args)


class TestEventIsANamedTuple:
    CALL = InstrDescriptor(category="call", callee_id="Foo")

    def test_equals_the_tuple_of_its_fields(self):
        event = make_event(seq=3, value=7)
        fields = (3, 0, "user", "read", 0x1000, 8,
                  InstrDescriptor(category="int-move"), 0x401000, 7, None)
        assert event == fields
        assert tuple(event) == fields
        assert len(event) == 10
        assert event._fields == ("seq", "thread_id", "cpl", "kind", "address",
                                 "operand_size", "instr", "rip", "value",
                                 "register_args")
        with pytest.raises(AttributeError):
            event.seq = 4

    def test_replace_runs_the_checks(self):
        event = make_event()
        with pytest.raises(ValueError, match="^bad cpl 'bogus'$"):
            event._replace(cpl="bogus")
        with pytest.raises(ValueError, match="not allowed for category"):
            event._replace(register_args=(0, 0, 0, 0))
        with pytest.raises(ValueError, match="unexpected field names"):
            event._replace(bogus=1)
        assert event._replace(seq=5).seq == 5

    def test_make_runs_the_checks(self):
        fields = list(make_event(kind="write", instr=self.CALL,
                                 register_args=(1, 2, 3, 4)))
        assert type(AccessEvent._make(fields)) is AccessEvent
        for at, bad in [(2, "root"), (3, "jump"), (5, 3),
                        (9, (1, 2, 3)), (9, ("a", 0, 0, 0))]:
            wrong = fields[:at] + [bad] + fields[at + 1:]
            with pytest.raises(ValueError):
                AccessEvent._make(wrong)
        with pytest.raises(TypeError):
            AccessEvent._make(fields[:9] + [None, None])

    def test_every_constructor_stores_args_as_a_tuple(self):
        event = make_event(kind="write", instr=self.CALL,
                           register_args=[1, 2, 3, 4])
        assert type(event.register_args) is tuple
        for made in (event._replace(register_args=[5, 6, 7, 8]),
                     AccessEvent._make(list(event)[:9] + [[5, 6, 7, 8]])):
            assert made.register_args == (5, 6, 7, 8)
            assert type(made.register_args) is tuple

    @pytest.mark.parametrize("clone", [
        lambda event: pickle.loads(pickle.dumps(event)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, clone):
        for event in (make_event(seq=9, value=1 << 70),
                      make_event(kind="write", instr=self.CALL,
                                 register_args=(1, 2, 3, 1 << 64))):
            got = clone(event)
            assert got == event
            assert type(got) is AccessEvent
            assert type(got.register_args) is type(event.register_args)

    def test_unpickling_runs_the_checks(self):
        """pickle rebuilds an event through its constructor, so a pickle
        of a bad event, built without the checks, fails to load."""
        fields = tuple(make_event())
        bad = tuple.__new__(AccessEvent, fields[:2] + ("root",) + fields[3:])
        with pytest.raises(ValueError, match="^bad cpl 'root'$"):
            pickle.loads(pickle.dumps(bad))


class TestParseSerialize:
    def test_empty_stream(self):
        log = parse_trace(b"")
        assert len(log) == 0
        assert log.module_range == (0, 0)

    def test_empty_log_serializes_to_empty_stream(self):
        assert serialize_trace(TraceLog()) == b""

    def test_single_event_round_trip(self):
        log = TraceLog(events=(make_event(seq=0),),
                       module_range=(0x401000, 0x402000))
        data = serialize_trace(log)
        lines = data.decode().strip().split("\n")
        assert len(lines) == 2  # header + one event
        assert json.loads(lines[0])["columns"] == list(trace.COLUMNS)
        assert json.loads(lines[1]) == [
            0, 0, "u", "r", "0x1000", 8, "0x401000",
            {"cat": "int-move", "sign": "n/a"}, None, None]
        assert parse_trace(data) == log

    def test_byte_streams_read_as_bytes(self):
        """A stream of byte lines, as a file opened in binary yields, reads
        as its bytes do: a trace and a model alike."""
        data = serialize_trace(_template_log(random.Random(3), 20))
        assert parse_trace(io.BytesIO(data)) == parse_trace(data)
        model = serialize_model(make_model([ModelOp("push", value=k)
                                            for k in range(20)]))
        assert parse_model(io.BytesIO(model)) == parse_model(model)

    def test_malformed_line_names_line_number(self):
        data = json.dumps(HEADER) + "\nnot json\n"
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace(data)

    def test_missing_header_rejected(self):
        data = b'{"seq": 0}\n'
        with pytest.raises(TraceParseError, match="module_range"):
            parse_trace(data)

    def test_module_range_without_hi_rejected(self):
        data = json.dumps({"module_range": {"lo": "0x0"},
                           "columns": list(trace.COLUMNS)}) + "\n"
        with pytest.raises(TraceParseError,
                           match="^line 1: bad module_range: 'hi'$"):
            parse_trace(data)

    def test_unknown_signedness_rejected(self):
        data = (json.dumps(HEADER) + '\n'
                '[0, 1, "u", "w", "0x10", 4, "0x20",'
                ' {"cat": "int-move", "sign": "maybe"}, null, null]\n')
        with pytest.raises(TraceParseError,
                           match="^line 2: unknown signedness 'maybe'$"):
            parse_trace(data)

    def test_shape_without_cat_rejected(self):
        data = (json.dumps(HEADER) + '\n'
                '[0, 1, "u", "w", "0x10", 4, "0x20", {"sign": "n/a"},'
                ' null, null]\n')
        with pytest.raises(TraceParseError,
                           match="^line 2: a shape object needs cat and sign$"):
            parse_trace(data)

    def test_duplicate_seq_rejected(self):
        log = TraceLog(events=(make_event(seq=5),), module_range=(0, 0x1000))
        line = serialize_trace(log).decode().strip().split("\n")[1]
        header = serialize_trace(log).decode().split("\n")[0]
        data = "\n".join([header, line, line]).encode()
        with pytest.raises(TraceOrderError):
            parse_trace(data)

    def test_declined_chunk_checks_seq_within_the_chunk(self):
        """A chunk read row by row (a blank line declines it) checks each
        row's seq against the row before it in the chunk, not only
        against the rows stored before the chunk."""
        rows = [[seq, 0, "u", "r", "0x10", 8, "0x20", 0, None, None]
                for seq in (4, 7, 5)]
        rows[0][7] = {"cat": "int-move", "sign": "n/a"}
        lines = [json.dumps(HEADER), json.dumps(rows[0]), "",
                 json.dumps(rows[1]), json.dumps(rows[2])]
        with pytest.raises(TraceOrderError,
                           match="^line 5: seq 5 not greater than 7$"):
            parse_trace("\n".join(lines))

    @pytest.mark.parametrize("field, value", [
        ("seq", "x"), ("tid", []), ("size", True), ("seq", True),
        ("seq", 2.0), ("tid", True), ("tid", 1.5), ("tid", "1"),
        ("size", 4.0), ("size", "4")])
    def test_non_integer_event_field_rejected(self, field, value):
        """AccessEvent's own check names the field, on both readers."""
        row = [1, 1, "u", "w", "0x10", 4, "0x20",
               {"cat": "int-move", "sign": "n/a"}, None, None]
        bad = [2] + row[1:7] + [0, None, None]
        bad[trace.COLUMNS.index(field)] = value
        data = "\n".join(json.dumps(line) for line in [HEADER, row, bad])
        name = {"seq": "seq", "tid": "thread_id", "size": "operand_size"}
        got = _outcome(parse_trace, data)
        assert got == (TraceParseError, 3, f"line 3: {name[field]} "
                       f"{trace._shown(value)} is not an integer")
        assert got == _outcome(reference_parse_trace, data)

    @pytest.mark.parametrize("instr, args, message", [
        ('"cat": "call", "sign": "n/a", "callee": [1]', 'null',
         "callee_id [1] is not a string"),
        ('"cat": "call", "sign": "n/a"', '["a", "b", "c", "d"]',
         "'a' is neither an integer nor a 0x-prefixed hex string"),
        ('"cat": "call", "sign": "n/a"', '"abcd"',
         "args must be a list, not 'abcd'"),
        ('"cat": "call", "sign": "n/a", "callee": 1', 'null',
         "callee_id 1 is not a string"),
    ], ids=["list-callee", "string-args", "args-string", "number-callee"])
    def test_malformed_call_descriptor_rejected(self, instr, args, message):
        data = (json.dumps(HEADER) + '\n'
                '[1, 1, "u", "w", "0x10", 8, "0x20", {%s}, null, %s]\n'
                % (instr, args))
        got = _outcome(parse_trace, data)
        assert got == (TraceParseError, 2, "line 2: " + message)
        assert got == _outcome(reference_parse_trace, data)

    def test_unknown_keys_ignored(self):
        data = (json.dumps({**HEADER, "extra": 1}) + '\n'
                '[0, 1, "k", "w", "0x10", 4, "0x20",'
                ' {"cat": "int-move", "sign": "signed", "zzz": 9}, null, null]\n')
        log = parse_trace(data)
        assert log.events[0].cpl == "kernel"
        assert log.events[0].kind == "write"
        assert log.events[0].instr == InstrDescriptor("int-move", "signed")

    @pytest.mark.parametrize("header", [
        {"module_range": {"lo": "0x0", "hi": "0x1000"}},
        {"module_range": {"lo": "0x0", "hi": "0x1000"},
         "columns": list(trace.COLUMNS[:-1])},
        {"module_range": {"lo": "0x0", "hi": "0x1000"},
         "columns": ",".join(trace.COLUMNS)},
    ], ids=["missing", "short", "string"])
    def test_header_must_name_the_columns(self, header):
        """A trace of one object per event, the format before columns,
        fails at its header."""
        data = (json.dumps(header) + '\n'
                '{"seq": 0, "tid": 1, "cpl": "u", "kind": "w", "addr": "0x10",'
                ' "size": 4, "rip": "0x20",'
                ' "instr": {"cat": "int-move", "sign": "n/a"}}\n')
        with pytest.raises(TraceParseError, match="^line 1: .*columns"):
            parse_trace(data)

    @pytest.mark.parametrize("row, message", [
        ([1, 1, "u", "w", "0x10", 4, "0x20", 0, None], "list of 10 values"),
        ([1, 1, "u", "w", "0x10", 4, "0x20", 0, None, None, None],
         "list of 10 values"),
        ({str(k): 0 for k in range(10)}, "list of 10 values"),
        ([1, 1, "u", "w", "0x10", 4, "0x20", 1, None, None],
         "instr 1 names no"),
        ([1, 1, "u", "w", "0x10", 4, "0x20", -1, None, None],
         "instr -1 names no"),
        ([1, 1, "u", "w", "0x10", 4, "0x20", True, None, None],
         "shape's index"),
        ([1, 1, "u", "w", "0x10", 4, "0x20", 0.0, None, None],
         "shape's index"),
        ([1, 1, "u", "w", "0x10", 4, "0x20",
          {"cat": "int-move", "sign": "n/a", "val": "0x1"}, None, None],
         "holds no val"),
        ([1, 1, "u", "w", "0x1g", 4, "0x20", 0, "0x2g", None], "'0x2g'$"),
        ([1, 1, "u", "w", "10", 4, "0x20", 0, None, None], "'10' is not"),
        ([1, 1, "u", "w", "0x10", 4, "20", 0, None, None], "'20' is not"),
        ([1, 1, "u", "w", "0x10", 4, "0x20", 0, "30", None], "'30' is not"),
        ([1, 1, "u", "x", "0x10", 1, "0x20",
          {"cat": "call", "sign": "n/a", "args": [1, 0, 0, 0]}, None, None],
         "holds no args"),
        ([1, 1, "u", "w", "0x10", 4, "0x20", 0, None, [1, 0, 0, 0]],
         "register_args not allowed for category 'int-move'"),
        ([1, 1, "u", "x", "0x10", 1, "0x20",
          {"cat": "call", "sign": "n/a"}, None, [1, 0, 0]],
         "exactly 4 values"),
        ([1, 1, "u", "x", "0x1g", 1, "0x20",
          {"cat": "call", "sign": "n/a"}, None, {"0": 1}],
         "args must be a list, not {'0': 1}$"),
    ], ids=["short", "long", "object", "undefined", "negative", "bool",
            "float", "val-in-shape", "bad-addr-and-val", "unprefixed-addr",
            "unprefixed-rip", "unprefixed-val", "args-in-shape",
            "args-off-a-call", "three-args", "bad-addr-and-args"])
    def test_bad_rows_rejected(self, row, message):
        defined = [0, 1, "u", "w", "0x8", 4, "0x20",
                   {"cat": "int-move", "sign": "n/a"}, None, None]
        data = "\n".join(json.dumps(r) for r in (HEADER, defined, row))
        with pytest.raises(TraceParseError, match=f"line 3: .*{message}"):
            parse_trace(data)
        assert _outcome(parse_trace, data) == _outcome(reference_parse_trace,
                                                       data)

    def test_thousand_event_round_trip(self):
        rng = random.Random(42)
        log = random_log(rng, 1000)
        assert parse_trace(serialize_trace(log)) == log

    @given(st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        log = random_log(rng, rng.randrange(0, 40))
        assert parse_trace(serialize_trace(log)) == log


CALL_SHAPE = {"cat": "call", "sign": "n/a", "callee": "Foo"}


def _outcome(parse, data):
    """What a parser makes of `data`: its log, or the class, line number
    and text of the exception it raised."""
    try:
        return parse(data)
    except Exception as exc:
        return type(exc), getattr(exc, "lineno", None), str(exc)


class TestInternedDescriptors:
    HEX = ["0x1", "0x0", "0x00", "0x000"]

    @pytest.mark.parametrize("first, later", [
        ([1, 0, 0, 0], [True, 0, 0, 0]),
        ([1, 0, 0, 0], [1.0, 0, 0, 0]),
        (HEX, dict.fromkeys(HEX, 0)),
    ], ids=["bool", "float", "object"])
    def test_equal_but_differently_typed_args_rejected(self, first, later):
        """A later row's args that equal an accepted row's under == (or
        iterate like them) are still checked on their own."""
        call = [1, 0, "u", "x", "0x10", 1, "0x10"]
        records = [HEADER, call + [CALL_SHAPE, None, first],
                   [2] + call[1:] + [0, None, later]]
        data = "\n".join(json.dumps(r) for r in records)
        with pytest.raises(TraceParseError, match="line 3"):
            parse_trace(data)
        assert _outcome(parse_trace, data) == _outcome(reference_parse_trace, data)

    def test_one_descriptor_built_per_distinct_instr_record(self, monkeypatch):
        """The constructor runs once per shape object in the file, every
        event citing a shape shares its descriptor, and each event's val
        and args are its own."""
        rng = random.Random(7)
        pool = [random_event(rng, 0) for _ in range(6)]
        events = []
        for seq in range(300):
            template = rng.choice(pool)
            events.append(template._replace(
                seq=seq, address=rng.randrange(1 << 40)))
        data = serialize_trace(TraceLog(events=tuple(events),
                                        module_range=(0, 0x1000)))
        rows = [json.loads(line) for line in data.decode().splitlines()[1:]]
        shapes = [row[7] for row in rows if isinstance(row[7], dict)]
        built = []

        def counting(*args, **kwargs):
            built.append(InstrDescriptor(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(trace, "InstrDescriptor", counting)
        log = parse_trace(data)
        assert len(log) == 300
        defined = 0
        for row, event in zip(rows, log.events):
            if isinstance(row[7], dict):
                row[7], defined = defined, defined + 1
            assert event.instr is built[row[7]]
            assert event.value == (None if row[8] is None
                                   else int(row[8], 16))
            assert event.register_args == (None if row[9] is None
                                           else tuple(row[9]))
        assert len(shapes) <= 6
        assert len(built) == len(shapes)


# Row-level mutations: JSON values that equal a valid one under ==
# (true for 1, 1.0 for 1), hex and non-hex strings, wrong types, shape
# indices that are not yet defined, dropped and added row values,
# dropped shape keys and a val or args inside a shape; args cells of the
# wrong type or length, holding a list, or on a row that is no call; and
# header columns that are missing or differ.  Text-level ones: stray whitespace of every
# kind, trailing data, blank lines, swapped lines and other JSON lines;
# raw line breaks inside a callee string, two rows on one line, a row
# split over two lines, and CR or CRLF line ends.
ARG_TOKENS = [True, False, 1.0, 0.0, "0x1", "0X1", "1", -1, 1 << 70, None,
              [1], {}]
# Whole args cells: a string or an object in place of the list, 3 or 5
# values, hex strings, a list inside the list, and valid lists that land
# on rows that are no calls.
ARGS_CELLS = ["0x1", "[0, 0, 0, 0]", {}, {"0": 1}, [0, 0, 0], [0, 0, 0, 0, 0],
              [], ["0x1", "0x0", "0x00", "0x40"], [[0], 0, 0, 0], [[0, 0, 0, 0]],
              [0, 0, 0, 0], [1, 2, 3, 4], None, True]
VAL_TOKENS = ["0x10", 16, True, 1.5, "16", "0x", None, [], "0x010"]
FIELD_TOKENS = [True, 1.0, 0, 8, 16, "x", "0x10", "u", "k", "r", "w",
                "user", None, [], {}]
INSTR_KEYS = ["cat", "sign", "callee", "args", "val"]
COLUMN_TOKENS = [None, list(trace.COLUMNS[:-1]), list(trace.COLUMNS[::-1]),
                 list(trace.COLUMNS) + ["extra"], ",".join(trace.COLUMNS),
                 {}, list(trace.COLUMNS)]
WHITESPACE = [" ", "\t", "\x0c", "\x0b", "\xa0", "\ufeff", " \t "]
TRAILING = [" x", "{}", " 1", ",", "]", " \x0c", "\t"]
# Line breaks inside a string: the first three are legal raw in JSON,
# and the bracketed ones leave both halves looking like rows.
BREAKS = ["\u2028", "\u2029", "\x85", "]\u2028[", "]\u2029[", "]\x85[",
          "]\n[", "]\r\n["]
RAW_LINES = ["[]", "5", "null", "NaN", "{", '"seq tid cpl kind addr size rip'
             ' instr val"', json.dumps(trace.COLUMNS), json.dumps(HEADER),
             '{"seq": 0, "tid": 1, "cpl": "u", "kind": "w", "addr": "0x10",'
             ' "size": 4, "rip": "0x20", "instr": {"cat": "int-move",'
             ' "sign": "n/a"}}']

MUTATION = st.tuples(
    st.sampled_from(["arg", "args", "swap", "val", "field", "instr", "drop",
                     "cat", "index", "extend", "inval", "nest", "columns",
                     "space", "blank", "trail", "order", "raw", "break",
                     "join", "split", "crlf"]),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)


def _template_log(rng: random.Random, n_events: int) -> TraceLog:
    """Events copied from a few templates, so instruction shapes repeat;
    each call gets its own arguments, small, so many are 0 or 1."""
    pool = [random_event(rng, 0) for _ in range(rng.randrange(1, 5))]
    events = []
    seq = 0
    for _ in range(n_events):
        seq += rng.randrange(1, 3)
        event = rng.choice(pool)
        args = event.register_args
        if args is not None:
            args = tuple(rng.choice([0, 1, 2, 0x40]) for _ in range(4))
        events.append(event._replace(
            seq=seq, thread_id=rng.randrange(3),
            address=rng.randrange(1 << 40), register_args=args))
    return TraceLog(events=tuple(events), module_range=(0x1000, 0x2000))


def _mutate(log: TraceLog, mutations) -> str:
    text = serialize_trace(log).decode()
    records = [json.loads(line) for line in text.splitlines()]
    rows = records[1:]
    for action, where, which in mutations:
        if action == "columns":
            token = COLUMN_TOKENS[which % len(COLUMN_TOKENS)]
            if token is None:
                records[0].pop("columns", None)
            else:
                records[0]["columns"] = token
            continue
        if not rows or action in ("space", "blank", "trail", "order", "raw",
                                  "break", "join", "split", "crlf"):
            continue
        at = where % len(rows)
        row = rows[at]
        shape = row[7] if len(row) > 7 else None
        if action == "arg" and len(row) > 9:
            # One value of the args, which a row that is no call gains.
            if row[9] is None:
                row[9] = [0, 0, 0, 0]
            if isinstance(row[9], list) and row[9]:
                row[9][which % len(row[9])] = ARG_TOKENS[
                    which % len(ARG_TOKENS)]
        elif action == "args" and len(row) > 9:
            row[9] = json.loads(json.dumps(ARGS_CELLS[which % len(ARGS_CELLS)]))
        elif action == "swap" and len(row) > 9:
            # An earlier row's args, one int made a bool or float of
            # equal value.
            earlier = [r[9] for r in rows[:at]
                       if len(r) > 9 and isinstance(r[9], list) and r[9]]
            if earlier:
                args = json.loads(json.dumps(earlier[which % len(earlier)]))
                slot = which % len(args)
                if type(args[slot]) is int:
                    args[slot] = (bool(args[slot]) if args[slot] in (0, 1)
                                  and which % 2 else float(args[slot]))
                row[9] = args
        elif action == "val" and len(row) > 8:
            row[8] = VAL_TOKENS[which % len(VAL_TOKENS)]
        elif action == "field" and row:
            row[which % len(row)] = FIELD_TOKENS[which % len(FIELD_TOKENS)]
        elif action == "instr" and isinstance(shape, dict):
            shape[INSTR_KEYS[which % 5]] = FIELD_TOKENS[
                which % len(FIELD_TOKENS)]
        elif action == "drop":
            if isinstance(shape, dict) and which % 2:
                if shape:
                    del shape[sorted(shape)[which % len(shape)]]
            elif row:
                del row[which % len(row)]
        elif action == "cat" and isinstance(shape, dict):
            shape["cat"] = trace.CATEGORIES[which % len(trace.CATEGORIES)]
        elif action == "index" and len(row) > 7:
            # Around the number of shapes defined before this row.
            defined = sum(isinstance(r[7], dict) for r in rows[:at]
                          if len(r) > 7)
            row[7] = [defined - 1, defined, defined + 1, 0, -1, True, False,
                      0.0, float(max(defined - 1, 0))][which % 9]
        elif action == "extend":
            row.append(FIELD_TOKENS[which % len(FIELD_TOKENS)])
        elif action == "inval" and isinstance(shape, dict):
            # The value inside the shape, as the object lines had it.
            shape["val"] = row[8] if len(row) > 8 and which % 2 else "0x1"
        elif action == "nest" and isinstance(shape, dict):
            # An unknown key holding lists: "], [" inside a row.
            shape["x"] = [[which % 3], [0]]
    lines = [json.dumps(r) for r in records]
    end = "\n"
    for action, where, which in mutations:
        at = where % len(lines)
        if action == "space":
            pad = WHITESPACE[which % len(WHITESPACE)]
            lines[at] = pad + lines[at] if which % 2 else lines[at] + pad
        elif action == "blank":
            lines.insert(at, WHITESPACE[which % len(WHITESPACE)] * (which % 3))
        elif action == "trail":
            lines[at] += TRAILING[which % len(TRAILING)]
        elif action == "order":
            other = which % len(lines)
            lines[at], lines[other] = lines[other], lines[at]
        elif action == "raw":
            lines[at] = RAW_LINES[which % len(RAW_LINES)]
        elif action == "break":
            lines[at] = lines[at].replace(
                '"callee": "', '"callee": "' + BREAKS[which % len(BREAKS)], 1)
        elif action == "join" and at + 1 < len(lines):
            lines[at:at + 2] = [lines[at] + ", "[:which % 3] + lines[at + 1]]
        elif action == "split":
            # At the comma of a "], [" where there is one, else at some
            # ", ".
            cut = lines[at].find("], [")
            cut = (cut + 1 if cut >= 0 and which % 2
                   else lines[at].find(", ", which % (len(lines[at]) + 1)))
            if cut >= 0:
                lines[at:at + 1] = [lines[at][:cut],
                                    lines[at][cut + 1:].lstrip(" ")]
        elif action == "crlf":
            end = "\r\n" if which % 2 else "\r"
    return end.join(lines)


@given(seed=st.integers(0, 2**32), mutations=st.lists(MUTATION, max_size=4),
       form=st.sampled_from(["str", "bytes", "stream"]),
       chunk=st.sampled_from([1, 2, 3, trace._CHUNK_ROWS]))
@settings(max_examples=500, deadline=None)
def test_parse_trace_matches_reference_parser(seed, mutations, form, chunk):
    rng = random.Random(seed)
    text = _mutate(_template_log(rng, rng.randrange(0, 25)), mutations)
    # Each line a stream yields is split again as text is, at form feeds
    # too, so the three forms read alike.
    make = {"str": lambda: text, "bytes": text.encode,
            "stream": lambda: io.StringIO(text)}[form]
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        got = _outcome(parse_trace, make())
    assert got == _outcome(reference_parse_trace, make())


SPLIT_CALLEE = ('[1, 0, "u", "w", "0x10", 8, "0x20", {"cat": "call", '
                '"sign": "n/a", "callee": "ab]%s[cd"}, null, null]')


@pytest.mark.parametrize("row", [
    SPLIT_CALLEE % "\u2028", SPLIT_CALLEE % "\u2029", SPLIT_CALLEE % "\x85",
    SPLIT_CALLEE % "\n", SPLIT_CALLEE % "\r\n",
    '[1, 0, "u", "w", "0x10", 8, "0x20", {"cat": "other", "sign": "n/a", '
    '"x": [[1]\n[2]]}, null, null]',
    '[1, 0, "u", "w", "0x10", 8\n"0x20", {"cat": "other", "sign": "n/a"}, '
    'null, null]',
    '[1, 0, "u", "w", "0x10", 8, "0x20", {"cat": "call", "sign": "n/a"}, '
    'null, [1, 2]\n[3, 4]]',
    '[1, 0, "u", "w", "0x10", 8, "0x20", {"cat": "call", "sign": "n/a"}, '
    '[1, 2]\n[3, 4]]',
], ids=["u2028", "u2029", "u0085", "lf", "crlf", "list-of-lists",
        "between-columns", "inside-args", "args-after-a-list"])
def test_row_split_over_two_lines_is_rejected(row):
    """Row 1 is split over lines 2 and 3, and line 4 holds rows 2 and 3,
    so the body has as many rows as lines.  Joined into one array, the
    lines decode to three rows, the first with the callee "ab],[cd" (or
    an unknown key [[1],[2]], or the args [1, 2] and then [3, 4], the
    first of them in place of the val); read line by line, line 2 is not
    JSON."""
    pair = ", ".join(f'[{seq}, 0, "u", "w", "0x10", 8, "0x20", 0, null, null]'
                     for seq in (2, 3))
    data = "\n".join([json.dumps(HEADER), row, pair])
    with pytest.raises(TraceParseError, match="^line 2: invalid JSON"):
        parse_trace(data)
    assert _outcome(parse_trace, data) == _outcome(reference_parse_trace,
                                                   data)


@pytest.mark.parametrize("chunk", [1, 2, 3, trace._CHUNK_ROWS])
@pytest.mark.parametrize("shapes, bad", [
    ([{}, 1], 1),
    ([{}, 1, {}], 1),
    ([{}, 0, 2, {}, {}], 2),
    ([-1], 0),
    ([{}, -1], 1),
    ([{}, {}, 2], 2),
], ids=["past-the-last", "ahead-of-its-definition", "two-ahead",
        "negative-first", "negative", "past-two"])
def test_shape_index_must_name_an_earlier_shape(chunk, shapes, bad):
    """Rows with increasing seq whose `instr` is a shape object ({}) or
    an index; row `bad` names a shape not defined before it."""
    rows = [[seq, 0, "u", "w", "0x10", 8, "0x20",
             {"cat": "other", "sign": "n/a"} if shape == {}
             else shape, None, None] for seq, shape in enumerate(shapes)]
    data = "\n".join(json.dumps(r) for r in [HEADER] + rows)
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        got = _outcome(parse_trace, data)
    assert got == _outcome(reference_parse_trace, data)
    index = shapes[bad]
    assert got[2] == (f"line {bad + 2}: instr {index} names no shape "
                      "defined before it")


@pytest.mark.parametrize("chunk", [1, 2, 3, trace._CHUNK_ROWS])
@pytest.mark.parametrize("cat, args, message", [
    ("call", [0, 0, 0], "exactly 4 values"),
    ("call", [0, 0, 0, 0, 0], "exactly 4 values"),
    ("call", [], "exactly 4 values"),
    ("call", [True, 0, 0, 0], "True is neither"),
    ("call", [1.0, 0, 0, 0], "1.0 is neither"),
    ("call", [[0], 0, 0, 0], r"\[0\] is neither"),
    ("call", ["x", 0, 0, 0],
     "'x' is neither an integer nor a 0x-prefixed hex string$"),
    ("call", ["16", 0, 0, 0],
     "'16' is neither an integer nor a 0x-prefixed hex string$"),
    ("call", "0x1", "args must be a list"),
    ("api-call", {"0": 1}, "args must be a list"),
    ("int-move", [0, 0, 0, 0], "not allowed for category 'int-move'"),
    ("call", ["0x1", "0x0", "0x00", "0x40"], None),
], ids=["three", "five", "empty", "bool", "float", "nested", "word",
        "decimal", "string", "object", "off-a-call", "hex"])
def test_args_checked_on_every_row(chunk, cat, args, message):
    """Row 1's args, then a valid row with the same cpl, kind, size and
    category: in bulk, AccessEvent's own checks run on one row of those,
    so the args guards must cover row 1.  Hex args are valid."""
    rows = [[1, 0, "u", "w", "0x10", 8, "0x20", {"cat": cat, "sign": "n/a"},
             None, args],
            [2, 0, "u", "w", "0x18", 8, "0x20", 0, None,
             [1, 2, 3, 4] if cat != "int-move" else None]]
    data = "\n".join(json.dumps(r) for r in [HEADER] + rows)
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        got = _outcome(parse_trace, data)
    assert got == _outcome(reference_parse_trace, data)
    if message is None:
        assert got.events[0].register_args == (1, 0, 0, 0x40)
    else:
        assert got[0] is TraceParseError
        assert re.match(f"line 2: .*{message}", got[2])


@pytest.mark.parametrize("joint", [", ", ",", ",\t"])
def test_two_rows_on_one_line_are_rejected(joint):
    lines = serialize_trace(_template_log(random.Random(5), 4)).decode(
        ).splitlines()
    lines[2:4] = [lines[2] + joint + lines[3]]
    data = "\n".join(lines)
    with pytest.raises(TraceParseError, match="^line 3: invalid JSON"):
        parse_trace(data)
    assert _outcome(parse_trace, data) == _outcome(reference_parse_trace,
                                                   data)


@pytest.mark.parametrize("before, after", [
    ("\n", ""), ("", "\n \t"), (" ", ""), ("", "\t"), ("\ufeff", ""),
    ("\xa0", ""),
], ids=["blank-before", "blank-after", "space", "tab", "bom", "nbsp"])
def test_body_line_oddities_match_the_line_reader(before, after):
    log = _template_log(random.Random(3), 6)
    lines = serialize_trace(log).decode().splitlines()
    lines[3] = before + lines[3] + after
    data = "\n".join(lines)
    assert _outcome(parse_trace, data) == _outcome(reference_parse_trace,
                                                   data)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("at", [-1, 0], ids=["last-in-chunk",
                                             "first-in-next"])
@pytest.mark.parametrize("fault", ["seq", "addr", "index", "addr-and-val",
                                   "args"])
def test_bad_row_at_a_chunk_boundary(chunk, at, fault):
    """A fault in the row just before or just after the boundary of the
    second chunk gets the line reader's error.  A row whose addr and val
    are both bad is named for its val, which is read first."""
    log = _template_log(random.Random(chunk), 12)
    lines = serialize_trace(log).decode().splitlines()
    k = 1 + 2 * chunk + at  # line of the faulty row
    row = json.loads(lines[k])
    if fault == "seq":
        row[0] = json.loads(lines[k - 1])[0]
    elif fault == "addr":
        row[4] = "0x1g"
    elif fault == "addr-and-val":
        row[4], row[8] = "0x1g", "0x2g"
    elif fault == "args":
        row[9] = [0, 0, 0]
    else:
        row[7] = 5
    lines[k] = json.dumps(row)
    data = "\n".join(lines)
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        got = _outcome(parse_trace, data)
    assert got == _outcome(reference_parse_trace, data)
    assert got[2].startswith(f"line {k + 1}: ")
    if fault == "addr-and-val":
        assert got[2].endswith("'0x2g'")


CALLEES = st.one_of(
    st.sampled_from(['Foo', 'q"uo"te', 'back\\slash\\', 'n\u00efc\u00f6de \u2603',
                     'tab\tnew\nline', '\x00\x1f\x7f', '\U0001f600']),
    st.text(max_size=6),
)
VALUES = st.one_of(st.none(), st.just(0), st.integers(0, 2**64 - 1),
                   st.integers(2**64, 2**80))
ARG = st.one_of(st.sampled_from([0, 1]), st.integers(0, 2**16),
                st.integers(2**64, 2**70))


def writer_logs():
    """Logs of writer_events."""
    return writer_events().map(lambda drawn: TraceLog(*drawn))


@st.composite
def writer_events(draw):
    """(A tuple of events, a module range): events that repeat a few
    instruction shapes with varying values and call arguments."""
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        cat = draw(st.sampled_from(
            ["int-move", "float-move", "xmm-zero-store", "push", "other",
             "call", "api-call", "syscall"]))
        callee = (draw(st.one_of(st.none(), CALLEES))
                  if cat in ("call", "api-call", "syscall") else None)
        shapes.append((cat, draw(st.sampled_from(["signed", "unsigned", "n/a"])),
                       callee))
    events = []
    for seq in range(draw(st.integers(0, 12))):
        cat, sign, callee = draw(st.sampled_from(shapes))
        args = (draw(st.one_of(st.none(), st.tuples(ARG, ARG, ARG, ARG)))
                if cat in ("call", "api-call") else None)
        kind = draw(st.sampled_from(["read", "write", "execute"]))
        size = {"float-move": 8, "xmm-zero-store": 16}.get(cat, 1)
        if kind == "execute" and size != 1:
            kind = "write"
        events.append(AccessEvent(
            seq=seq,
            thread_id=draw(st.integers(0, 2**70)),
            cpl=draw(st.sampled_from(["user", "kernel"])),
            kind=kind,
            address=draw(st.integers(0, 2**72)),
            operand_size=size,
            instr=InstrDescriptor(category=cat, signedness=sign,
                                  callee_id=callee),
            rip=draw(st.integers(0, 2**72)),
            value=draw(VALUES),
            register_args=args,
        ))
    module_range = draw(st.sampled_from([(0, 0), (0x401000, 0x402000)]))
    return tuple(events), module_range


@given(log=writer_logs())
@settings(max_examples=500, deadline=None)
def test_serialize_trace_matches_reference_writer(log):
    assert serialize_trace(log) == reference_serialize_trace(log)


def _readable(log: TraceLog) -> TraceLog:
    """`log` with seq 0, 1, ... and exact-int tids, sizes and args: what
    the writer writes of it then reads back as `log`."""
    events = []
    for seq, event in enumerate(log.events):
        args = event.register_args
        if args is not None:
            args = tuple(map(int, args))
        events.append(event._replace(
            seq=seq, thread_id=int(event.thread_id),
            operand_size=int(event.operand_size), register_args=args))
    return dataclasses.replace(log, events=tuple(events))


def _read_in_bulk(data, chunk=trace._CHUNK_ROWS):
    """parse_trace(data), asserting that no row was read by itself."""
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk), \
            mock.patch.object(trace, "_row_to_event",
                              side_effect=AssertionError("a row was read "
                                                         "by itself")):
        return parse_trace(data)


def _read_by_row(data):
    """parse_trace(data) with every chunk declined, so that each row is
    read by itself."""
    with mock.patch.object(trace, "_decode_chunk", return_value=None):
        return parse_trace(data)


@pytest.mark.parametrize("blank_at, read", [(13, [10, 11, 12]),
                                             (6, [7, 8, 9])],
                         ids=["trailing", "in-the-middle"])
@pytest.mark.parametrize("parse, module, builder, lineno_at", [
    (parse_trace, trace, "_row_to_event", 2),
    (parse_model, guest_mod, "_record_to_op", 0),
], ids=["trace", "model"])
def test_a_declined_chunk_alone_is_read_line_by_line(
        parse, module, builder, lineno_at, blank_at, read):
    """Eleven rows after the header and one blank line make three chunks
    of four lines.  Only the chunk that holds the blank line goes to the
    per-line builder, which runs on its three rows; the other two are
    taken by their column checks."""
    if parse is parse_trace:
        data = serialize_trace(_template_log(random.Random(6), 11))
    else:
        data = serialize_model(make_model([ModelOp("push", value=k)
                                           for k in range(11)]))
    lines = data.splitlines()
    assert len(lines) == 12
    lines.insert(blank_at - 1, b"")
    with mock.patch.object(trace, "_CHUNK_ROWS", 4), \
            mock.patch.object(module, builder,
                              wraps=getattr(module, builder)) as built:
        assert parse(b"\n".join(lines) + b"\n") == parse(data)
    assert [call.args[lineno_at] for call in built.call_args_list] == read


@given(log=writer_logs(), chunk=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_writer_output_never_takes_the_line_reader(log, chunk):
    """Without this, a guard that is too strict would lose the bulk
    reader's speed and every output would still match."""
    log = _readable(log)
    data = serialize_trace(log)
    for form in (data, data.decode(), data.replace(b"\n", b"\r\n")):
        assert _read_in_bulk(form, chunk) == log


def test_calls_with_distinct_args_share_one_descriptor(monkeypatch):
    """N calls to one callee, each with its own arguments, build one call
    descriptor in the run and in each reader, define one shape in
    the trace, and keep their arguments on their events."""
    n = 60
    ops = [ModelOp("call", callee="Foo", args=[k, 1 << 40, 0, k % 3])
           for k in range(n)] + [ModelOp("alloc", callee="malloc", size=k)
                                 for k in range(1, 4)]
    built = []
    post_init = InstrDescriptor.__post_init__

    def counting(self):
        built.append(self.category)
        post_init(self)

    monkeypatch.setattr(InstrDescriptor, "__post_init__", counting)
    log = run_model(make_model(ops))
    assert [e.register_args for e in log.events] == [
        (k, 1 << 40, 0, k % 3) for k in range(n)] + [
        (k, 0, 0, 0) for k in range(1, 4)]
    assert built.count("call") == built.count("api-call") == 1
    data = serialize_trace(log)
    assert data.count(b'"callee"') == 2
    for read in (_read_in_bulk, _read_by_row):
        built.clear()
        assert read(data) == log
        assert sorted(built) == ["api-call", "call"]


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_reader_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    """The bulk readers and the run pause the collector while they build,
    and leave it as they found it, enabled or not: whether parse_trace or
    parse_model takes its input, declines it or fails on it, and whether
    the run ends or raises a SimulationError midway."""
    good = serialize_trace(_template_log(random.Random(2), 30))
    lines = good.splitlines()
    short_row = b"\n".join(lines[:5] + [b"[1]"] + lines[6:])
    not_json = b"\n".join(lines[:5] + [b"[0, x]"] + lines[6:])
    model = serialize_model(make_model([ModelOp("push", value=k)
                                        for k in range(30)]))
    ops = model.splitlines()
    null_n_stack = b"\n".join(ops[:5] + [b'{"op": "call", "n_stack": null}']
                              + ops[6:])  # declined, and read line by line
    bad_hex = b"\n".join(ops[:5] + [b'{"op": "push", "value": "0x1g"}']
                         + ops[6:])
    ends = make_model([ModelOp("mov-write", addr=0x3000 + 8 * k, value=k)
                       for k in range(30)])
    raises = make_model(ends.ops[:20] + [ModelOp("mov-write", addr=0xdead0000)]
                        + ends.ops[20:])
    seen = []  # the collector's state inside each bulk build and run

    def spy(function):
        def spied(*args):
            seen.append(gc.isenabled())
            return function(*args)
        return spied

    for module, name in ((trace, "_decode_chunk"), (guest_mod, "_plain_ops")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    monkeypatch.setattr(guest_mod.Guest, "write_memory",
                        spy(guest_mod.Guest.write_memory))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for parse, data in ((parse_trace, good), (parse_trace, short_row),
                            (parse_trace, not_json), (parse_model, model),
                            (parse_model, null_n_stack),
                            (parse_model, bad_hex)):
            _outcome(parse, data)
            assert gc.isenabled() is enabled
        assert run_model(ends).events
        with pytest.raises(SimulationError):
            run_model(raises)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(seen) > 50  # 30 + 20 writes run, and the chunks
    assert not any(seen)


def test_long_writer_output_never_takes_the_line_reader():
    log = _template_log(random.Random(11), 3 * trace._CHUNK_ROWS + 5)
    assert _read_in_bulk(serialize_trace(log)) == log


@pytest.mark.parametrize("chunk", [7, trace._CHUNK_ROWS])
def test_one_event_check_per_bulk_reader_key(monkeypatch, chunk):
    """The bulk reader runs AccessEvent's checks on one event of each
    (cpl, kind, size, shape, args or not) in the whole text, over every
    chunk, not on every row: the other rows differ from it only in what
    the checks do not read, or in the args' count and types, which the
    reader checks by column."""
    log = run_model(make_model(capture_mix_ops(random.Random(4), 3000)))
    data = serialize_trace(log)
    checked = []
    post_init = AccessEvent.__post_init__

    def counting(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(AccessEvent, "__post_init__", counting)
    got = _read_in_bulk(data, chunk)
    assert got == log
    keys = {(e.cpl, e.kind, e.operand_size, e.instr, e.register_args is None)
            for e in got.events}
    assert len(got.events) > 10 * len(keys)
    assert len(checked) == len(keys)
    assert {(e.cpl, e.kind, e.operand_size, e.instr,
             e.register_args is None) for e in checked} == keys


@given(log=writer_logs(), seed=st.integers(0, 2**32), chunk=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_read_events_are_the_constructors_events(log, seed, chunk):
    """Every event either reader builds, most of them without the
    checks, is the event the checking constructor builds."""
    for log in (_readable(log), _template_log(random.Random(seed), 30)):
        data = serialize_trace(log)
        for got in (_read_in_bulk(data, chunk), _read_by_row(data)):
            assert got == log
            assert_built_as_constructed(got.events)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, parse, module, reader", [
    ("golden.trace", parse_trace, trace, "_row_to_event"),
    ("golden.model", parse_model, guest_mod, "_record_to_op"),
], ids=["trace", "model"])
def test_crlf_stream_is_read_in_bulk(name, parse, module, reader):
    """A stream of CRLF lines reads as its bytes do, a chunk per json.loads
    call: no line goes to the per-line reader."""
    data = (DATA / name).read_bytes()
    crlf = data.replace(b"\n", b"\r\n")
    with mock.patch.object(module, reader,
                           wraps=getattr(module, reader)) as per_line:
        got = parse(io.BytesIO(crlf))
    assert per_line.call_count == 0
    assert got == parse(crlf) == parse(data)


def test_u2028_in_a_callee_fails_in_a_stream_as_in_bytes():
    """A raw U+2028 ends a line in a stream as it does in bytes, so a
    callee that holds one splits its row there, and both fail at line 2."""
    text = json.dumps(HEADER) + "\n" + SPLIT_CALLEE % "\u2028"
    with pytest.raises(TraceParseError, match="^line 2: invalid JSON") as want:
        parse_trace(text.encode())
    for stream in (io.BytesIO(text.encode()), io.StringIO(text),
                   text.split("\n")):
        assert _outcome(parse_trace, stream) == (
            TraceParseError, 2, str(want.value))


@pytest.mark.parametrize("line", [
    '{"op": "nop"} x',
    '{"op": "nop"}\x0c',
    '\x0c{"op": "nop"}',
    '\ufeff{"op": "nop"}',
    ' \ufeff{"op": "nop"}',
    '{"op": ',
    '{"op": "nop"}{}',
    '{"op": "nop\r',  # a CR inside an open string, where a stream's line ends
])
@pytest.mark.parametrize("parse, error", [(parse_trace, TraceParseError),
                                          (parse_model, ModelParseError)])
def test_json_line_errors_match_json_loads(parse, error, line):
    """Both line readers skip whitespace-only lines, count them, and reject
    a line for the same reason json.loads gives.  Each line of a list is
    split as str.splitlines splits text, at a form feed or a CR too, so
    the list reads as its text does."""
    header = {"module_range": {"lo": "0x0", "hi": "0x1"},
              "columns": list(trace.COLUMNS), "entry_page": 1,
              "sp_init": "0x7ff000"}
    data = [json.dumps(header), " \x0c\t\xa0", line]
    text = "\n".join(data)
    assert _outcome(parse, data) == _outcome(parse, text)
    lines = text.splitlines()
    try:  # a form feed may split off a line that is valid JSON
        json.loads(lines[-1])
    except json.JSONDecodeError as want:
        with pytest.raises(error) as got:
            parse(data)
        assert str(got.value) == f"line {len(lines)}: invalid JSON: {want.msg}"
        assert got.value.lineno == len(lines)


@pytest.mark.parametrize("value", ["0x1g", "", 2.5, [[1], 2], "x" * 70],
                         ids=["bad-hex", "empty", "float", "nested", "70-chars"])
def test_short_values_show_in_full(value):
    assert trace._shown(value) == repr(value)


@pytest.mark.parametrize("value", ["z" * 100_000, [1] * 1000, "x" * 71],
                         ids=["long-string", "long-list", "71-chars"])
def test_long_values_show_a_prefix(value):
    text = repr(value)
    shown = trace._shown(value)
    assert shown.startswith(text[:trace._SHOWN_CHARS])
    assert shown.endswith(f"... ({len(text)} characters)")
    assert len(shown) < 100


class TestSplitByThread:
    def test_single_thread(self):
        events = tuple(make_event(seq=i, thread_id=7) for i in range(5))
        threads = split_by_thread(TraceLog(events=events))
        assert set(threads) == {7}
        assert threads[7] == list(events)

    def test_interleaved_threads_sorted(self):
        events = tuple(make_event(seq=i, thread_id=i % 2) for i in range(10))
        threads = split_by_thread(TraceLog(events=events))
        for tid, lst in threads.items():
            assert [e.seq for e in lst] == sorted(e.seq for e in lst)

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, seed):
        rng = random.Random(seed)
        log = random_log(rng, rng.randrange(0, 60))
        threads = split_by_thread(log)
        recombined = sorted(
            (e for lst in threads.values() for e in lst), key=lambda e: e.seq
        )
        assert tuple(recombined) == log.events



@pytest.mark.parametrize("field", ["address", "rip", "value"])
def test_negative_numbers_fail_at_construction(field):
    """Every public way of making an event rejects a negative address,
    rip or value, which the writer would spell "0x-1" and the reader
    reject, and names the field."""
    event = make_event(value=1)
    fields = event._asdict()
    message = f"^{field} -1 is negative$"
    for make in (lambda: AccessEvent(**{**fields, field: -1}),
                 lambda: AccessEvent._make({**fields, field: -1}.values()),
                 lambda: event._replace(**{field: -1})):
        with pytest.raises(ValueError, match=message):
            make()
    zero = event._replace(**{field: 0})
    log = TraceLog((zero,), (0, 0x1000))
    assert parse_trace(serialize_trace(log)) == log


@given(drawn=writer_events(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_event_view_is_the_tuple_of_events(drawn, data):
    """A log's events view indexes, slices, iterates, compares and hashes
    as the tuple of events it was made of, and a log made of the view's
    slice, as capture_entry_point makes one, holds that slice."""
    events, module_range = drawn
    log = TraceLog(events, module_range)
    view = log.events
    assert len(view) == len(log) == len(events)
    assert list(view) == list(events)
    assert view == events and events == view and tuple(view) == events
    assert hash(view) == hash(events)
    assert [view[at] for at in range(-len(events), len(events))] == [
        events[at] for at in range(-len(events), len(events))]
    with pytest.raises(IndexError):
        view[len(events)]
    cut = slice(*(data.draw(st.one_of(st.none(), st.integers(-14, 14)))
                  for _ in range(2)),
                data.draw(st.sampled_from([None, 1, 2, -1, -3])))
    assert type(view[cut]) is tuple
    assert view[cut] == events[cut]
    # A log holds events whose seq rises: its slice runs forward.
    rising = slice(cut.start, cut.stop, abs(cut.step or 1))
    assert TraceLog(view[rising], module_range).events == events[rising]
    assert_built_as_constructed(view)


def test_event_view_never_equals_a_list():
    """A view compares only with a view or a tuple: against a list of
    its own events __eq__ gives NotImplemented, so == is False."""
    events = (make_event(seq=0), make_event(seq=1))
    view = TraceLog(events, (0, 0x1000)).events
    assert view.__eq__(list(events)) is NotImplemented
    assert (view == list(events)) is False


@given(drawn=writer_events())
@settings(max_examples=200, deadline=None)
def test_log_of_events_equals_the_parse_of_its_trace(drawn):
    """A log made of events and the parse of the trace it writes compare
    equal either way round, and a log made of the parsed log's events
    equals both."""
    log = _readable(TraceLog(*drawn))
    parsed = parse_trace(serialize_trace(log))
    assert log == parsed and parsed == log
    assert TraceLog(tuple(parsed.events), parsed.module_range) == log


def test_parsed_log_keeps_at_most_200_bytes_per_event():
    """The parsed log keeps its events as columns: ten list slots per
    event, the ints they name, and repeated addresses and values
    shared.  A tuple per event kept beside them would cost about 130
    bytes more."""
    log = run_model(make_model(capture_mix_ops(random.Random(4), 12000)))
    data = serialize_trace(log)
    del log
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = parse_trace(data)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(got) >= 10_000
    assert kept <= 200 * len(got)

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace.trace import (
    AccessEvent,
    InstrDescriptor,
    TraceLog,
    TraceOrderError,
    TraceParseError,
    merge_round_robin,
    normalize_offsets,
    parse_trace,
    serialize_trace,
    split_by_thread,
)

from helpers import random_event, random_log


def make_event(seq=0, **kwargs):
    defaults = dict(
        thread_id=0, cpl="user", kind="read", address=0x1000,
        operand_size=8, instr=InstrDescriptor(category="int-move"),
        rip=0x401000,
    )
    defaults.update(kwargs)
    return AccessEvent(seq=seq, **defaults)


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
        import json
        record = json.loads(lines[1])
        assert set(record) == {"seq", "tid", "cpl", "kind", "addr", "size",
                               "rip", "instr"}
        assert parse_trace(data) == log

    def test_malformed_line_names_line_number(self):
        data = b'{"module_range": {"lo": "0x0", "hi": "0x1000"}}\nnot json\n'
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace(data)

    def test_missing_header_rejected(self):
        data = b'{"seq": 0}\n'
        with pytest.raises(TraceParseError, match="module_range"):
            parse_trace(data)

    def test_duplicate_seq_rejected(self):
        log = TraceLog(events=(make_event(seq=5),), module_range=(0, 0x1000))
        line = serialize_trace(log).decode().strip().split("\n")[1]
        header = serialize_trace(log).decode().split("\n")[0]
        data = "\n".join([header, line, line]).encode()
        with pytest.raises(TraceOrderError):
            parse_trace(data)

    @pytest.mark.parametrize("field, value",
                             [("seq", "x"), ("tid", []), ("size", True)])
    def test_non_integer_event_field_rejected(self, field, value):
        record = {"seq": 1, "tid": 1, "cpl": "u", "kind": "w", "addr": "0x10",
                  "size": 4, "rip": "0x20",
                  "instr": {"cat": "int-move", "sign": "n/a"}}
        lines = [{"module_range": {"lo": "0x0", "hi": "0x1000"}}, record,
                 {**record, "seq": 2, field: value}]
        with pytest.raises(TraceParseError, match="line 3"):
            parse_trace("\n".join(json.dumps(line) for line in lines))

    @pytest.mark.parametrize("instr", [
        '"cat": "call", "sign": "n/a", "callee": [1]',
        '"cat": "call", "sign": "n/a", "args": ["a", "b", "c", "d"]',
        '"cat": "call", "sign": "n/a", "args": "abcd"',
    ], ids=["list-callee", "string-args", "args-string"])
    def test_malformed_call_descriptor_rejected(self, instr):
        data = ('{"module_range": {"lo": "0x0", "hi": "0x1000"}}\n'
                '{"seq": 1, "tid": 1, "cpl": "u", "kind": "w", "addr": "0x10",'
                ' "size": 8, "rip": "0x20", "instr": {%s}}\n' % instr)
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace(data)

    def test_unknown_keys_ignored(self):
        data = (b'{"module_range": {"lo": "0x0", "hi": "0x1000"}, "extra": 1}\n'
                b'{"seq": 0, "tid": 1, "cpl": "k", "kind": "w", "addr": "0x10",'
                b' "size": 4, "rip": "0x20", "mystery": true,'
                b' "instr": {"cat": "int-move", "sign": "signed", "zzz": 9}}\n')
        log = parse_trace(data)
        assert log.events[0].cpl == "kernel"
        assert log.events[0].kind == "write"

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


class TestNormalizeOffsets:
    def test_min_becomes_reference(self):
        events = [make_event(seq=i, address=a)
                  for i, a in enumerate([0x2010, 0x2000, 0x2008])]
        pattern = normalize_offsets(events)
        assert pattern.base == 0x2000
        assert pattern.offsets == (0x10, 0x0, 0x8)

    def test_explicit_base(self):
        pattern = normalize_offsets([make_event(address=0x5000)], base=0x5000)
        assert pattern.offsets == (0,)

    def test_empty_without_base_errors(self):
        with pytest.raises(ValueError):
            normalize_offsets([])

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_elementwise_oracle(self, seed):
        rng = random.Random(seed)
        base = rng.randrange(1 << 30)
        addresses = [base + rng.randrange(1 << 12) for _ in range(10)]
        events = [make_event(seq=i, address=a)
                  for i, a in enumerate(addresses)]
        pattern = normalize_offsets(events, base=base)
        assert list(pattern.offsets) == [a - base for a in addresses]

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_min_offset_zero_property(self, seed):
        rng = random.Random(seed)
        events = [make_event(seq=i, address=rng.randrange(1 << 20))
                  for i in range(rng.randrange(1, 20))]
        assert min(normalize_offsets(events).offsets) == 0


def test_merge_round_robin_preserves_thread_order():
    a = TraceLog(events=tuple(make_event(seq=i, thread_id=1, address=i)
                              for i in range(3)),
                 module_range=(0, 0x1000))
    b = TraceLog(events=tuple(make_event(seq=i, thread_id=2, address=100 + i)
                              for i in range(5)))
    merged = merge_round_robin([a, b])
    assert [e.seq for e in merged.events] == list(range(8))
    per_thread = split_by_thread(merged)
    assert [e.address for e in per_thread[1]] == [0, 1, 2]
    assert [e.address for e in per_thread[2]] == [100, 101, 102, 103, 104]

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace.recon import (
    ALLOCATOR_NAMES,
    AMBIGUITY_NOTE,
    ARRAY_RUN_NOTE,
    CONFLICT_NOTE,
    EVASIVE_SEQUENCES,
    NO_ACCESS_NOTE,
    AllocationRecord,
    CallRecord,
    LayoutRecord,
    OwnerIndex,
    collect_bases,
    find_allocations,
    find_stack_buffers,
    flag_call_sequences,
    reconstruct_layout,
    recover_calls,
    render_layout_c,
    _infer_field_type,
    _Pointers,
)
from memtrace.guest import ModelOp
from memtrace.trace import AccessEvent, InstrDescriptor, TraceLog

from helpers import (
    ALLOCATION_RECORDS,
    counting_columns,
    first_owner,
    make_model,
    probe_addresses,
    reference_collect_bases,
    reference_find_stack_buffers,
    reference_recover_call,
    run_model,
)

MODULE_RANGE = (0x401000, 0x402000)
RIP = 0x401100


class LogBuilder:
    def __init__(self, module_range=MODULE_RANGE):
        self.events = []
        self.module_range = module_range
        self.seq = 0

    def _next(self):
        self.seq += 1
        return self.seq

    def add(self, kind, address, size=8, cat="int-move", value=None,
            callee=None, args=None, tid=0, rip=RIP, sign="n/a", cpl="user"):
        instr = InstrDescriptor(category=cat, signedness=sign,
                                callee_id=callee)
        self.events.append(AccessEvent(
            seq=self._next(), thread_id=tid, cpl=cpl, kind=kind,
            address=address, operand_size=size, instr=instr, rip=rip,
            value=value, register_args=tuple(args) if args else None,
        ))
        return self.events[-1]

    def api_call(self, callee, args, value=None, tid=0, rip=RIP):
        return self.add("execute", rip, size=1, cat="api-call", value=value,
                        callee=callee, args=list(args)[:4] + [0] * (4 - len(args)),
                        tid=tid, rip=rip)

    def call(self, callee, args, push_addr, value=None, tid=0, rip=RIP):
        return self.add("write", push_addr, size=8, cat="call", value=value,
                        callee=callee, args=list(args)[:4] + [0] * (4 - len(args)),
                        tid=tid, rip=rip)

    def log(self):
        return TraceLog(events=tuple(self.events),
                        module_range=self.module_range)


class TestFindAllocations:
    def test_nt_allocate_example(self):
        b = LogBuilder()
        b.api_call("NtAllocateVirtualMemory", [0x100], value=0x9000)
        records = find_allocations(b.log())
        assert records == [AllocationRecord(base=0x9000, size=0x100,
                                            source="heap-hook", site_rip=RIP)]

    def test_non_allocator_calls_ignored(self):
        b = LogBuilder()
        b.api_call("GetTickCount", [0], value=0x1234)
        b.add("write", 0x5000, value=7)
        assert find_allocations(b.log()) == []

    def test_empty_log(self):
        assert find_allocations(TraceLog()) == []

    def test_direct_call_is_not_an_allocation(self):
        # The call event is the return-address push: its value is the
        # return address, not a returned base.
        log = run_model(make_model([ModelOp("call", callee="malloc",
                                            args=[64])]))
        assert [e.instr.category for e in log.events] == ["call"]
        assert find_allocations(log) == []

    def test_call_without_observed_base_skipped(self):
        b = LogBuilder()
        b.api_call("malloc", [0x40], value=None)
        assert find_allocations(b.log()) == []

    def test_negative_size_gives_a_base_of_size_0(self):
        b = LogBuilder()
        b.api_call("malloc", [-0x40], value=0x9000)
        want = [AllocationRecord(base=0x9000, size=0, source="heap-hook",
                                 site_rip=RIP)]
        assert find_allocations(b.log()) == want
        assert collect_bases(b.log()) == want

    def test_fifty_allocations_ground_truth(self):
        rng = random.Random(3)
        b = LogBuilder()
        expected = []
        names = sorted(ALLOCATOR_NAMES)
        for i in range(50):
            size = rng.randrange(1, 0x4000)
            base = 0x100000 + i * 0x10000
            b.api_call(rng.choice(names), [size], value=base)
            expected.append((base, size))
            if rng.random() < 0.5:
                b.add("write", base, value=1)
        got = [(r.base, r.size) for r in find_allocations(b.log())]
        assert got == expected


def call_record(log, event, allocations=()):
    """The record recover_calls gives for one call event of the log."""
    (record,) = [r for r in recover_calls(log, allocations)
                 if r.seq == event.seq]
    return record


class TestRecoverCall:
    def push_addr(self):
        # SP before the call is push address + 8.
        return 0x7FEFF8

    def test_register_only_call(self):
        b = LogBuilder()
        event = b.call("Foo", [0x11, 0x22, 0x33, 0x44], self.push_addr(),
                       value=RIP + 4)
        record = call_record(b.log(), event)
        assert record.reg_params == (0x11, 0x22, 0x33, 0x44)
        assert record.stack_params == ()
        assert record.param_count == 4
        assert record.return_address == RIP + 4

    def test_trailing_zero_registers_lower_count(self):
        b = LogBuilder()
        event = b.call("Foo", [0x11, 0x22, 0, 0], self.push_addr())
        assert call_record(b.log(), event).param_count == 2

    def test_stack_slots_at_sp_plus_0x20(self):
        b = LogBuilder()
        sp = self.push_addr() + 8
        b.add("write", sp + 0x20, value=0x55)
        b.add("write", sp + 0x28, value=0x66)
        event = b.call("Foo", [1, 2, 3, 4], self.push_addr())
        record = call_record(b.log(), event)
        assert record.stack_params == (0x55, 0x66)
        assert record.param_count == 6

    def test_stale_slots_from_previous_call_ignored(self):
        b = LogBuilder()
        sp = self.push_addr() + 8
        b.add("write", sp + 0x20, value=0x99)
        b.call("First", [1, 0, 0, 0], self.push_addr())
        event = b.call("Second", [1, 2, 0, 0], self.push_addr())
        record = call_record(b.log(), event)
        assert record.stack_params == ()
        assert record.param_count == 2

    def test_zero_to_ten_parameters_exact(self):
        for n in range(11):
            b = LogBuilder()
            values = [0x100 + k for k in range(n)]
            sp = self.push_addr() + 8
            for k, value in enumerate(values[4:]):
                b.add("write", sp + 0x20 + 8 * k, value=value)
            regs = (values[:4] + [0, 0, 0, 0])[:4]
            event = b.call("Foo", regs, self.push_addr())
            record = call_record(b.log(), event)
            assert record.param_count == n, n
            assert list(record.stack_params) == values[4:]

    def test_pointer_flags_from_allocations(self):
        allocs = [AllocationRecord(base=0x9000, size=0x100,
                                   source="heap-hook")]
        b = LogBuilder()
        event = b.call("Foo", [0x9010, 0x5, 0, 0], self.push_addr())
        record = call_record(b.log(), event, allocs)
        assert record.pointer_flags[:2] == (True, False)


class TestFindStackBuffers:
    def test_shadow_space_only_ignored(self):
        b = LogBuilder()
        b.add("write", 0x7FEFD8, cat="sub-sp", value=0x20)
        b.call("Foo", [1, 0, 0, 0], 0x7FEFD0)
        assert find_stack_buffers(b.log()) == []

    def test_larger_sub_yields_buffer(self):
        b = LogBuilder()
        b.add("write", 0x7FEF00, cat="sub-sp", value=0x58)
        records = find_stack_buffers(b.log())
        assert records == [AllocationRecord(base=0x7FEF00, size=0x38,
                                            source="stack-pattern",
                                            site_rip=RIP)]

    def test_five_zeroing_stores_make_0x50_buffer(self):
        b = LogBuilder()
        base = 0x7FEE00
        for k in range(5):
            b.add("write", base + 16 * k, size=16, cat="xmm-zero-store")
        records = find_stack_buffers(b.log())
        assert records == [AllocationRecord(base=base, size=0x50,
                                            source="stack-pattern",
                                            site_rip=RIP)]

    def test_run_lengths_one_to_eight(self):
        for k in range(1, 9):
            b = LogBuilder()
            for step in range(k):
                b.add("write", 0x7000 + 16 * step, size=16,
                      cat="xmm-zero-store")
            records = find_stack_buffers(b.log())
            assert [r.size for r in records] == [16 * k]

    def test_non_consecutive_stores_split_runs(self):
        b = LogBuilder()
        b.add("write", 0x7000, size=16, cat="xmm-zero-store")
        b.add("write", 0x7020, size=16, cat="xmm-zero-store")
        sizes = sorted(r.size for r in find_stack_buffers(b.log()))
        assert sizes == [16, 16]


class TestCollectBases:
    def test_heap_hook_wins_duplicate(self):
        b = LogBuilder()
        b.api_call("malloc", [0x80], value=0x9000)
        b.call("Use", [0x9000, 0, 0, 0], 0x7FEFF8)
        records = collect_bases(b.log())
        by_base = {r.base: r for r in records}
        assert by_base[0x9000].source == "heap-hook"
        assert by_base[0x9000].size == 0x80

    def test_call_param_pointer_discovered(self):
        b = LogBuilder()
        b.api_call("malloc", [0x80], value=0x9000)
        b.call("Use", [0x20000, 0, 0, 0], 0x7FEFF8)
        b.add("write", 0x20008, value=3)  # makes 0x20000 a mapped address
        sources = {r.base: r.source for r in collect_bases(b.log())}
        assert sources[0x20000] == "call-param"

    def test_untouched_call_param_is_not_a_base(self):
        # 0x20000 lies between the touched pages 0x3000 and the stack, but
        # no event touched its page: it is not a pointer.
        b = LogBuilder()
        b.add("write", 0x3000, value=1)
        b.call("Foo", [0x20000, 1, 2, 3], 0x7FEFF8)
        assert [r for r in collect_bases(b.log())
                if r.source == "call-param"] == []

    def test_module_range_is_mapped_without_expanding_it(self):
        b = LogBuilder(module_range=(0, 1 << 64))
        b.call("Foo", [0x20000, 0, 0, 0], 0x7FEFF8)
        sources = {r.base: r.source for r in collect_bases(b.log())}
        assert sources == {0x20000: "call-param"}

    def test_superset_of_each_source(self):
        b = LogBuilder()
        b.api_call("malloc", [0x40], value=0x9000)
        b.add("write", 0x7FEF00, cat="sub-sp", value=0x60)
        log = b.log()
        bases = {r.base for r in collect_bases(log)}
        assert {r.base for r in find_allocations(log)} <= bases
        assert {r.base for r in find_stack_buffers(log)} <= bases

    def test_sorted_by_base(self):
        b = LogBuilder()
        b.api_call("malloc", [0x10], value=0x30000)
        b.api_call("malloc", [0x10], value=0x10000)
        assert [r.base for r in collect_bases(b.log())] == [0x10000, 0x30000]


def make_access(address, size=4, cat="int-move", sign="signed", value=None,
                seq=0, rip=RIP):
    return AccessEvent(
        seq=seq, thread_id=0, cpl="user", kind="write", address=address,
        operand_size=size,
        instr=InstrDescriptor(category=cat, signedness=sign),
        rip=rip, value=value,
    )


def infer_field(accesses, allocations=()):
    """_infer_field_type at the first access's address, over the
    allocations, with nothing else mapped."""
    return _infer_field_type(accesses[0].address, accesses,
                             _Pointers(TraceLog(), allocations))


class TestInferFieldType:
    def test_exhaustive_scalar_table(self):
        table = {
            (1, "signed"): "char", (1, "unsigned"): "unsigned char",
            (2, "signed"): "short", (2, "unsigned"): "unsigned short",
            (4, "signed"): "int", (4, "unsigned"): "unsigned int",
            (8, "signed"): "long long", (8, "unsigned"): "unsigned long long",
        }
        for (size, sign), want in table.items():
            record = infer_field([make_access(0x100, size=size, sign=sign)])
            assert (record.size, record.category) == (size, want)

    def test_float_and_double(self):
        for size, want in ((4, "float"), (8, "double")):
            record = infer_field(
                [make_access(0x100, size=size, cat="float-move")])
            assert record.category == want

    def test_pointer_requires_target_in_allocation(self):
        allocs = [AllocationRecord(base=0x9000, size=0x100, source="heap-hook")]
        ptr = infer_field([make_access(0x100, size=8, value=0x9040)],
                               allocs)
        assert ptr.category == "pointer"
        scalar = infer_field([make_access(0x100, size=8, value=0x40)],
                                  allocs)
        assert scalar.category == "long long"

    def test_conflicting_sizes_take_max_and_note(self):
        record = infer_field([
            make_access(0x100, size=2, seq=0),
            make_access(0x100, size=4, seq=1),
        ])
        assert record.size == 4
        assert CONFLICT_NOTE in record.notes

    def test_evidence_count(self):
        record = infer_field(
            [make_access(0x100, seq=i) for i in range(7)])
        assert record.evidence_count == 7


class TestReconstructLayout:
    def test_two_fields_with_gap(self):
        b = LogBuilder()
        b.add("write", 0x50000, size=4, cat="int-move", sign="signed", value=1)
        b.add("write", 0x50008, size=8, cat="float-move", value=2)
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=16)
        shape = [(f.offset, f.size, f.category) for f in layout.fields]
        assert shape == [(0, 4, "int"), (4, 4, "char-array"),
                         (8, 8, "double")]

    def test_empty_window_single_array_with_note(self):
        layout = reconstruct_layout(TraceLog(module_range=MODULE_RANGE),
                                    0x50000, size_hint=0x40)
        assert len(layout.fields) == 1
        assert layout.fields[0].size == 0x40
        assert NO_ACCESS_NOTE in layout.fields[0].notes

    def test_injected_page_fault_is_not_evidence(self):
        log = run_model(make_model([
            ModelOp("alloc", callee="malloc", size=0x40),
            ModelOp("mov-write", addr=0x9000, size=8, value=1),
            ModelOp("mov-read", addr=0x9008, size=8),
        ]))
        assert [e.address for e in log.events
                if e.instr.category == "page-fault"] == [0x9000]
        first = reconstruct_layout(log, 0x9000, size_hint=16).fields[0]
        assert (first.offset, first.size, first.evidence_count) == (0, 8, 1)
        assert CONFLICT_NOTE not in first.notes

    def test_folded_accesses_note_the_conflict_once(self):
        """Accesses inside an already-typed extent add their evidence to
        it, and one conflict note."""
        b = LogBuilder()
        b.add("write", 0x9000, size=8, value=1)
        b.add("write", 0x9002, size=1, value=2)
        b.add("write", 0x9004, size=1, value=3)
        [field] = reconstruct_layout(b.log(), 0x9000, size_hint=8).fields
        assert (field.offset, field.size, field.category,
                field.evidence_count) == (0, 8, "long long", 3)
        assert field.notes == [CONFLICT_NOTE]

    def test_heap_manager_noise_filtered_by_rip(self):
        b = LogBuilder()
        b.add("write", 0x50000, size=4, value=1)
        b.add("write", 0x50010, size=8, value=2, rip=0x77000000)
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=0x20)
        typed = [f for f in layout.fields if f.evidence_count]
        assert [(f.offset, f.size) for f in typed] == [(0, 4)]

    def test_adjacent_byte_arrays_merge_with_note(self):
        # An int header followed by two conceptual char arrays of 39 and
        # 80 bytes; byte-wise evidence cannot separate them.
        b = LogBuilder()
        b.add("write", 0x50000, size=4, sign="unsigned", value=1)
        for off in range(4, 123):
            b.add("write", 0x50000 + off, size=1, sign="signed", value=0x41)
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=123)
        shape = [(f.offset, f.size, f.category) for f in layout.fields]
        assert shape == [(0, 4, "unsigned int"), (4, 119, "char-array")]
        assert AMBIGUITY_NOTE in layout.fields[1].notes

    def test_default_window_without_hint(self):
        b = LogBuilder()
        b.add("write", 0x50000, size=4, value=1)
        layout = reconstruct_layout(b.log(), 0x50000)
        assert layout.total_size == 0x1000

    def test_stride_run_noted_as_array_like(self):
        b = LogBuilder()
        for k in range(4):
            b.add("write", 0x50000 + 4 * k, size=4, value=k)
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=16)
        assert all(ARRAY_RUN_NOTE in f.notes for f in layout.fields)

    def test_fields_partition_window(self):
        rng = random.Random(11)
        for _ in range(20):
            b = LogBuilder()
            cursor = 0
            while cursor < 0x100 - 8:
                size = rng.choice([1, 2, 4, 8])
                b.add("write", 0x50000 + cursor, size=size,
                      value=rng.randrange(1, 0x1000))
                cursor += size + rng.choice([0, 0, 8])
            layout = reconstruct_layout(b.log(), 0x50000, size_hint=0x100)
            cursor = 0
            for record in layout.fields:
                assert record.offset == cursor
                cursor += record.size
            assert cursor == 0x100

    def test_random_layout_ground_truth(self):
        rng = random.Random(21)
        kinds = [
            ("char", 1, "int-move", "signed"),
            ("unsigned short", 2, "int-move", "unsigned"),
            ("int", 4, "int-move", "signed"),
            ("unsigned int", 4, "int-move", "unsigned"),
            ("float", 4, "float-move", "n/a"),
            ("long long", 8, "int-move", "signed"),
            ("double", 8, "float-move", "n/a"),
        ]
        for _ in range(10):
            b = LogBuilder()
            base = 0x50000
            truth = []
            cursor = 0
            last_size = None
            while cursor < 0xF0:
                name, size, cat, sign = rng.choice(kinds)
                if size == 1 and last_size == 1:
                    continue  # adjacent byte fields would merge by design
                truth.append((cursor, size, name))
                for _rep in range(rng.randrange(1, 4)):
                    b.add("write", base + cursor, size=size, cat=cat,
                          sign=sign, value=rng.randrange(1, 0xFFF))
                gap = rng.choice([0, 0, 0, 2, 6])
                last_size = None if gap else size
                cursor += size + gap
            layout = reconstruct_layout(b.log(), base, size_hint=0x100)
            got = [(f.offset, f.size, f.category)
                   for f in layout.fields if f.category != "char-array"]
            assert got == truth

    def test_access_inside_a_typed_extent_folds_into_its_evidence(self):
        b = LogBuilder()
        b.add("write", 0x50000, size=4, sign="signed", value=1)
        b.add("read", 0x50002, size=1, sign="signed")
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=8)
        first = layout.fields[0]
        assert (first.offset, first.size, first.category) == (0, 4, "int")
        assert first.evidence_count == 2
        assert first.notes == [CONFLICT_NOTE]
        assert [(f.offset, f.size) for f in layout.fields] == [(0, 4), (4, 4)]

    def test_field_past_the_window_is_clipped_to_a_char_array(self):
        b = LogBuilder()
        b.add("write", 0x50000 + 12, size=8, value=1)
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=16)
        shape = [(f.offset, f.size, f.category, f.evidence_count)
                 for f in layout.fields]
        assert shape == [(0, 12, "char-array", 0), (12, 4, "char-array", 1)]

    def test_xmm_zero_store_is_a_char_array(self):
        b = LogBuilder()
        b.add("write", 0x50010, size=16, cat="xmm-zero-store")
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=0x40)
        shape = [(f.offset, f.size, f.category, f.evidence_count)
                 for f in layout.fields]
        assert shape == [(0, 16, "char-array", 0), (16, 16, "char-array", 1),
                         (32, 32, "char-array", 0)]

    def test_render_c_mentions_every_field(self):
        b = LogBuilder()
        b.add("write", 0x50000, size=4, value=1)
        layout = reconstruct_layout(b.log(), 0x50000, size_hint=8)
        text = render_layout_c(layout)
        assert text.startswith("struct")
        for record in layout.fields:
            assert f"field_0x{record.offset:x}" in text


C_TYPES = [  # (size, instr category, signedness, the field's C type)
    (1, "int-move", "signed", "char"),
    (1, "int-move", "unsigned", "unsigned char"),
    (2, "int-move", "signed", "short"),
    (2, "int-move", "unsigned", "unsigned short"),
    (4, "int-move", "signed", "int"),
    (4, "int-move", "unsigned", "unsigned int"),
    (8, "int-move", "signed", "long long"),
    (8, "int-move", "unsigned", "unsigned long long"),
    (4, "float-move", "signed", "float"),
    (8, "float-move", "signed", "double"),
    (8, "int-move", "n/a", "void *"),  # its value lies in an allocation
]


@pytest.mark.parametrize("size, cat, sign, c_type", C_TYPES,
                         ids=[c_type for *_, c_type in C_TYPES])
def test_render_c_spells_each_category_as_its_c_type(size, cat, sign,
                                                       c_type):
    """Each of the eleven categories _infer_field_type gives is declared
    with its C type: the category itself, but "void *" for a pointer."""
    heap = AllocationRecord(base=0x9000, size=0x10, source="heap-hook")
    value = 0x9008 if c_type == "void *" else None
    record = infer_field([make_access(0, size=size, cat=cat, sign=sign,
                                      value=value)], [heap])
    layout = LayoutRecord(base=0x50000, total_size=size, fields=[record])
    assert render_layout_c(layout).splitlines()[1] == f"    {c_type} field_0x0;"


def make_call(callee, seq, tid=0):
    return CallRecord(callee_id=callee, reg_params=(0, 0, 0, 0),
                      stack_params=(), param_count=0, return_address=None,
                      pointer_flags=(False,) * 4, seq=seq, thread_id=tid,
                      rip=RIP)


class TestFlagCallSequences:
    def test_process_injection_with_noise(self):
        names = ["GetTickCount", "OpenProcess", "Sleep", "VirtualAllocEx",
                 "WriteProcessMemory", "CloseHandle", "NtCreateThreadEx"]
        calls = [make_call(n, i) for i, n in enumerate(names)]
        hits = flag_call_sequences(calls)
        assert [h.rule for h in hits] == ["Process Injection"]
        assert (hits[0].first_seq, hits[0].last_seq) == (1, 6)

    def test_each_builtin_rule_fires_on_its_own_steps(self):
        for name, steps in EVASIVE_SEQUENCES:
            resolved = [s if isinstance(s, str) else s[0] for s in steps]
            calls = [make_call(n, i) for i, n in enumerate(resolved)]
            assert name in {h.rule for h in flag_call_sequences(calls)}

    def test_order_matters(self):
        names = ["SetWindowsHookEx", "GetProcAddress", "LoadLibraryA"]
        calls = [make_call(n, i) for i, n in enumerate(names)]
        assert flag_call_sequences(calls) == []

    def test_per_thread_isolation(self):
        names = ["LoadLibraryA", "GetProcAddress", "SetWindowsHookEx"]
        calls = [make_call(n, i, tid=i) for i, n in enumerate(names)]
        assert flag_call_sequences(calls) == []

    def test_repeat_sequence_hits_twice(self):
        names = ["LoadLibraryA", "GetProcAddress", "SetWindowsHookEx"] * 2
        calls = [make_call(n, i) for i, n in enumerate(names)]
        hits = [h for h in flag_call_sequences(calls)
                if h.rule == "Window Hooking"]
        assert len(hits) == 2

    def test_empty_calls(self):
        assert flag_call_sequences([]) == []

    def test_custom_single_rule(self):
        calls = [make_call("A", 0), make_call("B", 1)]
        hits = flag_call_sequences(calls, [("custom", ["A", "B"])])
        assert [h.rule for h in hits] == ["custom"]

    def test_injected_sequence_in_random_noise(self):
        rng = random.Random(8)
        noise = ["Foo", "Bar", "Baz", "Qux"]
        names = [rng.choice(noise) for _ in range(40)]
        steps = ["ConvertThreadToFiber", "VirtualAlloc", "CreateFiber"]
        positions = sorted(rng.sample(range(40), 3))
        for pos, step in zip(positions, steps):
            names[pos] = step
        calls = [make_call(n, i) for i, n in enumerate(names)]
        hits = [h for h in flag_call_sequences(calls)
                if h.rule == "Module Execution Through Fibers"]
        assert len(hits) == 1
        assert hits[0].first_seq == positions[0]
        assert hits[0].last_seq == positions[2]


def test_recover_calls_matches_singletons():
    b = LogBuilder()
    b.call("One", [1, 0, 0, 0], 0x7FEFF8)
    b.call("Two", [2, 2, 0, 0], 0x7FEFF0)
    records = recover_calls(b.log())
    assert [r.callee_id for r in records] == ["One", "Two"]
    assert [r.param_count for r in records] == [1, 2]


def _scans(function, n_calls):
    """How many times `function` iterates the columns of a log holding
    n_calls calls, heap hooks, stack slot writes and stack patterns,
    summed over the columns."""
    b = LogBuilder()
    push = 0x7FEFF8
    for k in range(n_calls):
        b.add("write", push + 8 + 0x20, value=k)
        b.call("Foo", [0x9000, 1, 0, 0], push)
        b.api_call("malloc", [0x40], value=0x9000 + 0x1000 * k)
        b.add("write", 0x7FE000, cat="sub-sp", value=0x40)
        b.add("write", 0x7FE100, size=16, cat="xmm-zero-store")
    log = counting_columns(b.log())
    function(log)
    return sum(column.iterations for column in log.columns)


def test_collect_bases_scans_the_trace_a_fixed_number_of_times():
    # The allocator hooks read 1 column, the touched pages 1 and the
    # frames 6.
    for function, scans in ((collect_bases, 1 + 1 + 6),
                            (recover_calls, 1 + 6),  # pages, frames
                            (find_stack_buffers, 6)):  # frames
        assert _scans(function, 10) == _scans(function, 100) == scans, function


PUSH_ADDRESSES = (0x7FEFF8, 0x7FEFE8)
VALUES = st.one_of(
    st.none(), st.just(0), st.integers(1, 16),
    st.sampled_from([0x9000, 0x9040, 0x20000, 0x401010, 0x7FF000]),
    st.integers(0, 1 << 24),
)
EVENT_SPECS = st.tuples(
    st.sampled_from(["write", "write", "syscall-write", "read", "call",
                     "api-call"]),
    st.integers(0, 1),  # thread
    st.integers(0, len(PUSH_ADDRESSES) - 1),  # call frame
    st.integers(0, 2),  # stack slot
    VALUES,
)


@settings(max_examples=200, deadline=None)
@given(specs=st.lists(EVENT_SPECS, max_size=60))
def test_recover_calls_matches_per_call_reference(specs):
    b = LogBuilder()
    for kind, tid, frame, slot, value in specs:
        push = PUSH_ADDRESSES[frame]
        address = push + 8 + 0x20 + 8 * slot
        if kind == "call":
            b.call("Foo", [value or 0, slot, 0, frame], push, tid=tid)
        elif kind == "api-call":
            b.api_call("malloc", [0x40 * slot], value=value, tid=tid)
        elif kind == "syscall-write":
            b.add("write", address, cat="syscall", value=value, tid=tid)
        else:
            b.add(kind, address, value=value, tid=tid)
    log = b.log()
    allocations = find_allocations(log)
    mapped = _Pointers(log)
    calls = [e for e in log.events if e.instr.category in ("call", "api-call")]
    expected = [reference_recover_call(log, e, allocations, mapped)
                for e in calls]
    assert recover_calls(log, allocations) == expected


@settings(max_examples=300, deadline=None)
@given(records=ALLOCATION_RECORDS, rng=st.randoms(use_true_random=False))
def test_owner_index_matches_first_containing_record(records, rng):
    owners = OwnerIndex(records)
    for address in probe_addresses(records, rng):
        assert owners.owner(address) is first_owner(records, address), address


XMM_BASE = 0x7FE000
STACK_SPECS = st.tuples(
    st.sampled_from(["xmm", "xmm", "xmm", "sub-sp", "write", "call",
                     "api-call"]),
    st.integers(0, 2),  # thread
    st.sampled_from([16, 16, 16, 0, 8, 32, -16]),  # from the thread's last store
    st.sampled_from([None, 0, 0x10, 0x20, 0x21, 0x58]),  # sub-sp amount
    st.integers(0, 2),  # stack slot
    st.one_of(VALUES, st.sampled_from([XMM_BASE, XMM_BASE + 0x400])),
)


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(STACK_SPECS, max_size=60))
def test_stack_buffers_and_bases_match_references(specs):
    # 1-3 interleaved threads; XMM stores that step 16 bytes from the
    # thread's last store and ones that do not; sub-sp amounts below, at
    # and above the shadow space, and without a value.
    b = LogBuilder()
    last_store = {}
    for kind, tid, step, amount, slot, value in specs:
        push = PUSH_ADDRESSES[tid % 2]
        if kind == "xmm":
            address = last_store.get(tid, XMM_BASE + 0x400 * tid - 16) + step
            last_store[tid] = address
            b.add("write", address, size=16, cat="xmm-zero-store", tid=tid)
        elif kind == "sub-sp":
            b.add("write", push - 0x40, cat="sub-sp", value=amount, tid=tid)
        elif kind == "call":
            b.call("Foo", [value or 0, slot, 0, 0], push, tid=tid)
        elif kind == "api-call":
            b.api_call("malloc", [0x40 * slot], value=value, tid=tid)
        else:
            b.add("write", push + 8 + 0x20 + 8 * slot, value=value, tid=tid)
    log = b.log()
    assert find_stack_buffers(log) == reference_find_stack_buffers(log)
    assert collect_bases(log) == reference_collect_bases(log)

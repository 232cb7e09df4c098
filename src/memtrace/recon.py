"""Trace analysis: allocations, calling conventions, layouts, call rules.

Consumes TraceLogs to discover allocation base addresses (heap hooks,
pointer-valued call parameters, stack patterns), recover per-call
parameters under the Windows x64 fastcall convention, reconstruct
structure layouts with typed fields, and flag known API-call sequences.

Every analysis reads a trace's columns (TraceLog.columns), in a fixed
number of linear passes, and builds no event but those it hands on.
One forward pass, _frames, reads six columns at once and gives the
call frames and the stack patterns together: per thread it keeps the
writes since that thread's previous call, which the call's stack
parameters are read from, its sub-sp amounts and its runs of XMM
zeroing stores.  A call is kept as its event's index, and its other
fields are read from the columns.  collect_bases adds two more
passes, the allocator hooks (find_allocations, the instr column) and
the touched pages (_Pointers, the address column).  These keep their
own passes: each reads one column, and reconstruct_layout needs them
without the frames.  reconstruct_layout finds the accesses inside its
window from the address column and builds an event for those alone.

Every pointer decision tests one set, _Pointers: a non-zero value
counts as a pointer when it falls inside a known allocation (one
bisection in an OwnerIndex), in a page the trace touched or in the
main-module range.  An address no event came near is never taken for
a pointer.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import (Callable, Container, Iterable, Iterator, NamedTuple,
                    Optional, Sequence)

# Unused here: bench/spans.py times split_by_thread through this module.
from .trace import (ARG_CATEGORIES, PAGE_SIZE, AccessEvent, TraceLog,
                    _program_accesses, split_by_thread)

SHADOW_SPACE = 0x20
STACK_SLOT_BASE = 0x20  # 5th parameter lives at [RSP+0x20], then +8 per slot
DEFAULT_WINDOW = 0x1000  # monitoring window when the structure size is unknown

# Functions hooked to learn allocation bases and sizes.
USER_ALLOCATORS = frozenset({
    "malloc", "calloc", "realloc",
    "LocalAlloc", "GlobalAlloc", "VirtualAlloc",
    "CreateFileMapping", "MapViewOfFile", "HeapAlloc", "CoTaskMemAlloc",
    "NtAllocateVirtualMemory", "NtAllocateVirtualMemoryEx",
})
KERNEL_ALLOCATORS = frozenset({
    "ExAllocatePool", "ExAllocatePoolWithTag", "ExAllocatePoolWithQuota",
    "MmAllocateContiguousMemory", "MmAllocateNonCachedMemory",
    "MmAllocatePagesForMdl", "MmAllocatePagesForMdlEx",
    "MmAllocateSystemMemory", "MmAllocateContiguousNodeMemory",
    "NtAllocateVirtualMemory", "NtAllocateVirtualMemoryEx",
})
ALLOCATOR_NAMES = USER_ALLOCATORS | KERNEL_ALLOCATORS

AMBIGUITY_NOTE = "adjacent same-size byte arrays cannot be separated"
NO_ACCESS_NOTE = "no accesses observed in window"
CONFLICT_NOTE = "conflicting operand sizes at this offset"
ARRAY_RUN_NOTE = "stride-regular run; possibly a single array"


@dataclass(frozen=True)
class AllocationRecord:
    base: int
    size: int
    source: str  # heap-hook | call-param | stack-pattern
    site_rip: int = 0

    @property
    def end(self) -> int:
        """The end of the record's range: a size of 0 spans DEFAULT_WINDOW."""
        return self.base + (self.size or DEFAULT_WINDOW)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class OwnerIndex:
    """The first record, in input order, whose range contains an address.

    owner(address) equals next((r for r in records if r.contains(address)),
    None) for any record order, overlap or size, in one bisection.  The
    sorted range endpoints cut the address space into elementary
    segments, and one sweep over them gives each segment its owner: a
    min-heap holds the input indices of the records begun so far, and a
    record that has ended leaves it once it comes to the top, so the top
    is the first record covering the segment.  Building costs
    O((r + s) log r) for r records and s segments.
    """

    def __init__(self, records: Iterable[AllocationRecord]):
        records = list(records)
        self.bounds = sorted({x for r in records for x in (r.base, r.end)})
        # owners[k] covers [bounds[k], bounds[k + 1]); the last is unbounded.
        self.owners: list[Optional[AllocationRecord]] = []
        begun: list[int] = []
        waiting = sorted(range(len(records)), key=lambda at: -records[at].base)
        for bound in self.bounds:
            while waiting and records[waiting[-1]].base == bound:
                heappush(begun, waiting.pop())
            while begun and records[begun[0]].end <= bound:
                heappop(begun)
            self.owners.append(records[begun[0]] if begun else None)

    def owner(self, address: int) -> Optional[AllocationRecord]:
        k = bisect_right(self.bounds, address) - 1
        return self.owners[k] if k >= 0 else None


@dataclass(frozen=True)
class CallRecord:
    callee_id: Optional[str]
    reg_params: tuple[int, int, int, int]
    stack_params: tuple[int, ...]
    param_count: int
    return_address: Optional[int]
    pointer_flags: tuple[bool, ...]
    seq: int
    thread_id: int
    rip: int


class CallName(NamedTuple):
    """What flag_call_sequences reads of a call: its seq, its thread and
    its callee."""

    seq: int
    thread_id: int
    callee_id: Optional[str]


@dataclass
class FieldRecord:
    offset: int
    size: int
    category: str
    evidence_count: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass
class LayoutRecord:
    base: int
    total_size: int
    fields: list[FieldRecord]


def find_allocations(log: TraceLog) -> list[AllocationRecord]:
    """One record per hooked allocator call, with the modeled return base.

    Only hook events (api-call and syscall) name an allocation: a call
    event is the return-address push, and its value is that address.
    """
    records = []
    columns = log.columns
    for at, instr in enumerate(columns.instr):
        # Not a hook, or a hook that saw the call but not the returned base.
        if (instr.callee_id not in ALLOCATOR_NAMES or instr.category == "call"
                or columns.value[at] is None):
            continue
        size = max((columns.register_args[at] or (0,))[0], 0)
        records.append(AllocationRecord(base=columns.value[at], size=size,
                                        source="heap-hook",
                                        site_rip=columns.rip[at]))
    return records


class _Pointers:
    """The values taken for pointers: a non-zero value that lies in one
    of the allocations, in a page any event of the log touched, or in
    the log's module range.  A lookup is one set probe, one range test
    and one bisection; the module range is never expanded page by page.
    """

    def __init__(self, log: TraceLog,
                 allocations: Iterable[AllocationRecord] = ()):
        self.owners = OwnerIndex(allocations)
        self.pages = {address // PAGE_SIZE for address in log.columns.address}
        self.module_lo, self.module_hi = log.module_range

    def __contains__(self, value: Optional[int]) -> bool:
        return bool(value) and (value // PAGE_SIZE in self.pages
                                or self.module_lo <= value < self.module_hi
                                or self.owners.owner(value) is not None)


def _frames(log: TraceLog) -> tuple[list, list[AllocationRecord]]:
    """Call frames and stack-pattern records, in one forward pass.

    Returns (calls, stack).  `calls` pairs the index of every call and
    api-call event, in seq order, with its stack parameters.  Each
    thread keeps a dict address -> last written value of its writes
    (syscall writes included) since its previous call.  A call event is
    the return-address push, so the pre-call stack pointer is its
    address + 8; its extra parameters are the values in that dict at
    SP+0x20, SP+0x28, ..., up to the first slot with no write.  The dict
    is then cleared, so an earlier frame's stale slots are never read.
    This relies on seq order, which parse_trace enforces.

    `stack` lists the threads by first appearance; each gives its sub-sp
    records, then its XMM runs.  A sub of at most 0x20 is shadow space
    and ignored; a larger one yields a buffer shrunk by the shadow
    adjustment.  A maximal run of zeroing stores, each 16 bytes above
    the one before with no other event of the thread between them,
    yields a buffer from the lowest stored address to the run's end.
    """
    # tid -> [written slots, sub-sp records, XMM runs, the open run]; a
    # run is [its first store's address and rip, the address that would
    # extend it].
    threads: dict[int, list] = defaultdict(lambda: [{}, [], [], None])
    calls = []
    columns = log.columns
    for at, tid, kind, address, instr, rip, value in zip(
            count(), columns.thread_id, columns.kind, columns.address,
            columns.instr, columns.rip, columns.value):
        thread = threads[tid]
        category = instr.category
        if category in ARG_CATEGORIES:
            slots = thread[0]
            stack_params = []
            slot = address + 8 + STACK_SLOT_BASE
            while slot in slots:
                stack_params.append(slots[slot])
                slot += 8
            slots.clear()
            calls.append((at, tuple(stack_params)))
        elif kind == "write":
            thread[0][address] = value or 0
        if category == "xmm-zero-store":
            run = thread[3]
            if run is not None and run[2] == address:
                run[2] += 16
            else:
                thread[3] = [address, rip, address + 16]
                thread[2].append(thread[3])
            continue
        thread[3] = None
        if category == "sub-sp" and (value or 0) > SHADOW_SPACE:
            thread[1].append(AllocationRecord(
                base=address, size=value - SHADOW_SPACE,
                source="stack-pattern", site_rip=rip))
    stack = []
    for _, subs, runs, _ in threads.values():
        stack += subs
        stack += [AllocationRecord(base=first, size=end - first,
                                   source="stack-pattern", site_rip=rip)
                  for first, rip, end in runs]
    return calls, stack


def recover_calls(log: TraceLog,
                  allocations: Sequence[AllocationRecord] = ()
                  ) -> list[CallRecord]:
    """Fastcall parameters of every call/api-call event, in seq order.

    The stack parameters come from _frames.  Pointer flags test
    _Pointers over the allocations.
    """
    pointers = _Pointers(log, allocations)
    records = []
    for at, stack_params in _frames(log)[0]:
        seq, tid, _, _, _, _, instr, rip, value, args = log.events[at]
        reg_params = args or (0, 0, 0, 0)
        if stack_params:
            param_count = 4 + len(stack_params)
        else:  # up to the last non-zero register
            param_count = max((k + 1 for k, v in enumerate(reg_params) if v),
                              default=0)
        records.append(CallRecord(
            callee_id=instr.callee_id,
            reg_params=reg_params,
            stack_params=stack_params,
            param_count=param_count,
            return_address=value,
            pointer_flags=tuple(v in pointers
                                for v in reg_params + stack_params),
            seq=seq,
            thread_id=tid,
            rip=rip,
        ))
    return records


def call_names(log: TraceLog) -> list[CallName]:
    """The seq, thread and callee of every call and api-call event, in
    seq order, in one pass: all that flag_call_sequences reads of
    recover_calls' records, without their frames and pointer flags."""
    rows = zip(log.columns.seq, log.columns.thread_id, log.columns.instr)
    return [CallName(seq, tid, instr.callee_id) for seq, tid, instr in rows
            if instr.category in ARG_CATEGORIES]


def find_stack_buffers(log: TraceLog) -> list[AllocationRecord]:
    """Stack-pattern allocation records from sub-sp amounts and XMM runs,
    as _frames finds them: threads by first appearance, each with its
    sub-sp records, then its XMM runs."""
    return _frames(log)[1]


def _maximal_runs(items: Sequence, follows: Callable[[object, object], bool]
                  ) -> Iterator[list]:
    """Split items, in order, into maximal runs: lists of consecutive
    items in which every item follows(previous, item) the one before."""
    run: list = []
    for item in items:
        if run and follows(run[-1], item):
            run.append(item)
            continue
        if run:
            yield run
        run = [item]
    if run:
        yield run


def collect_bases(log: TraceLog) -> list[AllocationRecord]:
    """Merged, deduplicated union of the three base-address sources.

    On a duplicate base the heap-hook record wins: it carries the exact
    size.  A call parameter becomes a base when it points into a heap
    allocation or into a page the trace touched (or the main module).
    The trace is read in three linear passes: the allocator hooks, the
    touched pages, and _frames, which gives the call frames and the
    stack-pattern records together.
    """
    heap = find_allocations(log)
    pointers = _Pointers(log, heap)
    merged = {record.base: record for record in heap}
    calls, stack = _frames(log)
    args, rips = log.columns.register_args, log.columns.rip
    for at, stack_params in calls:
        for value in (args[at] or (0, 0, 0, 0)) + stack_params:
            if value not in merged and value in pointers:
                merged[value] = AllocationRecord(
                    base=value, size=0, source="call-param", site_rip=rips[at])
    for record in stack:
        merged.setdefault(record.base, record)
    return sorted(merged.values(), key=lambda r: r.base)


# -- structure layout reconstruction -----------------------------------

_SIGNED = {
    1: "char", 2: "short", 4: "int", 8: "long long",
}
_FLOAT = {4: "float", 8: "double"}


def _infer_field_type(accesses: Sequence[AccessEvent],
                      pointers: Container[Optional[int]]) -> FieldRecord:
    """Assign a primitive category to all accesses at one offset.

    An 8-byte value is a pointer when it is in `pointers`.
    """
    offsets = {a.address for a in accesses}
    if len(offsets) != 1:
        raise ValueError("accesses must share one address")
    sizes = {a.operand_size for a in accesses}
    size = max(sizes)
    notes = [CONFLICT_NOTE] if len(sizes) > 1 else []
    is_float = any(a.instr.category == "float-move" for a in accesses)
    signed = not any(a.instr.signedness == "unsigned" for a in accesses)
    if size > 8:
        category = "char-array"
    elif is_float and size in _FLOAT:
        category = _FLOAT[size]
    elif size == 8 and any(a.value in pointers for a in accesses):
        category = "pointer"
    else:
        category = _SIGNED[size] if signed else "unsigned " + _SIGNED[size]
    record = FieldRecord(offset=accesses[0].address, size=size,
                         category=category, evidence_count=len(accesses))
    record.notes.extend(notes)
    return record


def reconstruct_layout(log: TraceLog, base: int,
                       size_hint: Optional[int] = None) -> LayoutRecord:
    """Two-phase layout reconstruction over [base, base + window).

    Phase 1 groups the program's own accesses (in-module reads and
    writes, no injected page faults) by offset from the base;
    phase 2 types each offset.  Untouched ranges become char arrays, and
    adjacent byte-granular evidence is merged into a single char array
    with an ambiguity note, since consecutive same-size byte arrays are
    indistinguishable from one.
    """
    window = size_hint or DEFAULT_WINDOW
    pointers = _Pointers(log, find_allocations(log))
    by_offset: dict[int, list[AccessEvent]] = {}
    addresses, events = log.columns.address, log.events
    inside = [at for at, address in zip(count(), addresses)
              if base <= address < base + window]
    for at in _program_accesses(log, inside):
        by_offset.setdefault(addresses[at] - base, []).append(events[at])

    if not by_offset:
        gap = FieldRecord(offset=0, size=window, category="char-array")
        gap.notes.append(NO_ACCESS_NOTE)
        return LayoutRecord(base=base, total_size=window, fields=[gap])

    typed: list[FieldRecord] = []
    end = 0
    for offset in sorted(by_offset):
        record = _infer_field_type(by_offset[offset], pointers)
        record.offset = offset
        if offset < end:
            # Access inside an already-typed extent: fold into evidence.
            typed[-1].evidence_count += record.evidence_count
            if CONFLICT_NOTE not in typed[-1].notes:
                typed[-1].notes.append(CONFLICT_NOTE)
            continue
        if record.offset + record.size > window:
            record.size = window - record.offset
            record.category = "char-array"
        typed.append(record)
        end = record.offset + record.size

    fields = _merge_byte_runs(typed)
    fields = _fill_gaps(fields, window)
    _note_stride_runs(fields)
    return LayoutRecord(base=base, total_size=window, fields=fields)


def _is_byte(record: FieldRecord) -> bool:
    return record.size == 1 and record.category in ("char", "unsigned char")


def _merge_byte_runs(typed: list[FieldRecord]) -> list[FieldRecord]:
    """Merge contiguous 1-byte evidence into one ambiguous char array."""
    merged: list[FieldRecord] = []
    for run in _maximal_runs(typed, lambda a, b: (
            _is_byte(a) and _is_byte(b) and b.offset == a.offset + 1)):
        if len(run) == 1:
            merged.append(run[0])
            continue
        merged.append(FieldRecord(
            offset=run[0].offset, size=len(run), category="char-array",
            evidence_count=sum(r.evidence_count for r in run),
            notes=[AMBIGUITY_NOTE],
        ))
    return merged


def _fill_gaps(fields: list[FieldRecord], window: int) -> list[FieldRecord]:
    """Materialize untouched ranges as char-array fields."""
    out: list[FieldRecord] = []
    cursor = 0
    for record in fields:
        if record.offset > cursor:
            out.append(FieldRecord(offset=cursor, size=record.offset - cursor,
                                   category="char-array"))
        out.append(record)
        cursor = record.offset + record.size
    if cursor < window:
        out.append(FieldRecord(offset=cursor, size=window - cursor,
                               category="char-array"))
    return out


def _note_stride_runs(fields: list[FieldRecord]) -> None:
    """Flag >=3 equally-spaced same-size same-category fields as array-like."""
    for run in _maximal_runs(fields, lambda a, b: (
            a.category != "char-array" and b.category == a.category
            and b.size == a.size and b.offset == a.offset + a.size)):
        if len(run) >= 3:
            for member in run:
                member.notes.append(ARRAY_RUN_NOTE)


def render_layout_c(layout: LayoutRecord) -> str:
    """C-like rendering of a reconstructed layout for human review."""
    lines = [f"struct reconstructed_0x{layout.base:x} {{"
             f"  /* total size 0x{layout.total_size:x} */"]
    for record in layout.fields:
        note = f"  /* {'; '.join(record.notes)} */" if record.notes else ""
        if record.category == "char-array":
            decl = f"    char field_0x{record.offset:x}[{record.size}];"
        elif record.category == "pointer":
            decl = f"    void * field_0x{record.offset:x};"
        else:  # any other category is spelled as its C type
            decl = f"    {record.category} field_0x{record.offset:x};"
        lines.append(decl + note)
    lines.append("};")
    return "\n".join(lines)


# -- API-call sequence rules -------------------------------------------

# Ordered callee-id sequences for evasive techniques; each step is a
# name or a set of alternatives.
EVASIVE_SEQUENCES: list[tuple[str, list]] = [
    ("Early Bird APC Code Injection",
     ["CreateProcessA", "WriteProcessMemory", "QueueUserAPC", "ResumeThread"]),
    ("Process Injection",
     ["OpenProcess", "VirtualAllocEx", "WriteProcessMemory",
      ("CreateRemoteThread", "NtCreateThreadEx", "RtlCreateUserThread")]),
    ("Load PE From Resource",
     ["FindResource", "SizeofResource", "LoadResource", "VirtualAlloc"]),
    ("Module Execution Through Fibers",
     ["ConvertThreadToFiber", "VirtualAlloc", "CreateFiber"]),
    ("Module Execution Through Thread Pool",
     ["CreateEvent", "VirtualAlloc", "CreateThreadpoolWait",
      "SetThreadpoolWait"]),
    ("Window Hooking",
     ["LoadLibraryA", "GetProcAddress", "SetWindowsHookEx"]),
    ("Map View of Section",
     ["NtCreateSection", "NtMapViewOfSection", "RtlCreateUserThread"]),
]


@dataclass(frozen=True)
class RuleHit:
    rule: str
    thread_id: int
    first_seq: int
    last_seq: int


def flag_call_sequences(calls: Sequence[CallRecord | CallName],
                        rules: Sequence[tuple[str, list]] = EVASIVE_SEQUENCES
                        ) -> list[RuleHit]:
    """A rule hits when its callee ids appear as an ordered (not
    necessarily contiguous) subsequence within one thread's calls.  It
    reads a call's seq, thread_id and callee_id only, so the CallNames of
    call_names(log) give the hits that recover_calls(log) gives."""
    by_thread: dict[int, list] = {}
    for call in sorted(calls, key=lambda c: c.seq):
        by_thread.setdefault(call.thread_id, []).append(call)
    hits = []
    for name, steps in rules:
        steps = [(step,) if isinstance(step, str) else step for step in steps]
        for tid, thread_calls in sorted(by_thread.items()):
            position = 0
            first_seq = None
            for call in thread_calls:
                if call.callee_id in steps[position]:
                    if position == 0:
                        first_seq = call.seq
                    position += 1
                    if position == len(steps):
                        hits.append(RuleHit(rule=name, thread_id=tid,
                                            first_seq=first_seq,
                                            last_seq=call.seq))
                        position = 0
    return hits

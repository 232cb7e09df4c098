"""Shared generators and independent oracles used across the test suite."""

from __future__ import annotations

import json
import random

from hypothesis import strategies as st

from memtrace.guest import (
    INSTR_STRIDE,
    PAGE_SIZE,
    Guest,
    ModelOp,
    ProgramModel,
    SimulationError,
    build_guest,
    run,
)
from memtrace.recon import (
    DEFAULT_WINDOW,
    SHADOW_SPACE,
    AllocationRecord,
    CallRecord,
    _maximal_runs,
    _Pointers,
    find_allocations,
)
from memtrace.signature import (
    DEFAULT_MATCH_THRESHOLD,
    DEFAULT_MIN_RUN,
    DEFAULT_TAU,
    DiffReport,
    NotSimilarError,
)
from memtrace.trace import (
    COLUMNS,
    _CPL_UNWIRE,
    _CPL_WIRE,
    _KIND_UNWIRE,
    _KIND_WIRE,
    AccessEvent,
    EventColumns,
    InstrDescriptor,
    TraceLog,
    TraceOrderError,
    TraceParseError,
    _hex,
    _iter_lines,
    _parse_addr,
    _shown,
    split_by_thread,
)

MODULE_PAGE = 0x401
SP_INIT = 0x7FF000
SCRATCH = [(0x3000, 0x8000)]

CATS_PLAIN = ["int-move", "float-move", "push", "other"]


def make_model(ops, *, entry_page=MODULE_PAGE, sp_init=SP_INIT, mapped=None,
               tid=0, cpl="user", entry_present=True, module_range=None):
    return ProgramModel(
        ops=ops, entry_page=entry_page, sp_init=sp_init,
        mapped=mapped if mapped is not None else list(SCRATCH),
        tid=tid, cpl=cpl, entry_present=entry_present,
        module_range=module_range,
    )


def run_model(model):
    return run(build_guest(model), model)


class CountingColumn(list):
    """A trace column that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def counting_columns(log: TraceLog) -> TraceLog:
    """`log` with each of its columns a CountingColumn."""
    columns = log.columns._make(map(CountingColumn, log.columns))
    return TraceLog(EventColumns(columns), log.module_range)


# -- random traces ------------------------------------------------------


def random_event(rng: random.Random, seq: int) -> AccessEvent:
    kind = rng.choice(["read", "write", "execute"])
    cat = "other"
    size = 1
    callee = None
    args = None
    value = rng.randrange(1 << 32) if rng.random() < 0.5 else None
    if kind != "execute":
        cat = rng.choice(["int-move", "float-move", "xmm-zero-store",
                          "push", "sub-sp", "other"])
        if cat == "float-move":
            size = rng.choice([4, 8])
        elif cat == "xmm-zero-store":
            size = 16
        else:
            size = rng.choice([1, 2, 4, 8])
    elif rng.random() < 0.3:
        cat = rng.choice(["call", "api-call"])
        callee = rng.choice(["Foo", "Bar", "NtAllocateVirtualMemory"])
        if cat in ("call", "api-call"):
            args = tuple(rng.randrange(1 << 16) for _ in range(4))
    instr = InstrDescriptor(
        category=cat,
        signedness=rng.choice(["signed", "unsigned", "n/a"]),
        callee_id=callee,
    )
    return AccessEvent(
        seq=seq,
        thread_id=rng.randrange(4),
        cpl=rng.choice(["user", "kernel"]),
        kind=kind,
        address=rng.randrange(1 << 40),
        operand_size=size,
        instr=instr,
        rip=rng.randrange(1 << 40),
        value=value,
        register_args=args,
    )


def capture_mix_ops(rng: random.Random, n: int) -> list:
    """An alloc, then n ops of many event kinds: writes and reads of
    several sizes, categories and signs, calls with 0 to 6 arguments,
    pushes, xmm zeroing, mode switches and stack buffers."""
    ops = [ModelOp("alloc", callee="malloc", size=0x2000)]
    for _ in range(n):
        choice = rng.randrange(7)
        address = 0x9000 + 8 * rng.randrange(0x400)
        if choice == 0:
            ops.append(ModelOp("mov-write", addr=address,
                               size=rng.choice([1, 2, 4, 8]),
                               value=rng.randrange(1 << 16),
                               sign=rng.choice(["signed", "unsigned"])))
        elif choice == 1:
            ops.append(ModelOp("mov-read", addr=address,
                               size=rng.choice([4, 8]),
                               cat=rng.choice(["int-move", "float-move"])))
        elif choice == 2:
            ops.append(ModelOp("call", callee=rng.choice(["F", "G"]),
                               args=[rng.randrange(1 << 12)
                                     for _ in range(rng.randrange(7))]))
        elif choice == 3:
            ops += [ModelOp("push", value=rng.randrange(9)), ModelOp("ret")]
        elif choice == 4:  # 16 bytes, all within the allocation
            ops.append(ModelOp("xmm-zero", addr=min(address, 0xaff0)))
        elif choice == 5:
            ops.append(ModelOp("mode-switch"))
        else:
            ops += [ModelOp("sub-sp", amount=0x20), ModelOp("ret")]
    return ops


def assert_built_as_constructed(events) -> None:
    """Each event is an AccessEvent, exactly, and equals, field by field
    and type by type, the event the public constructor builds from its
    fields: what an event built without the checks must be."""
    for event in events:
        assert type(event) is AccessEvent
        rebuilt = AccessEvent(*event)
        assert rebuilt == event
        assert list(map(type, rebuilt)) == list(map(type, event))


def random_log(rng: random.Random, n_events: int) -> TraceLog:
    seq = 0
    events = []
    for _ in range(n_events):
        seq += rng.randrange(1, 4)
        events.append(random_event(rng, seq))
    lo = rng.randrange(1 << 30)
    return TraceLog(events=tuple(events), module_range=(lo, lo + (1 << 20)))


# -- line-by-line trace parser oracle ------------------------------------


def _reference_int_or_hex(value) -> int:
    """An exact int or a 0x-prefixed hex string, as `args` cells hold."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.startswith("0x"):
        return int(value, 16)
    raise ValueError(f"{_shown(value)} is neither an integer nor a "
                     "0x-prefixed hex string")


def _reference_shape(raw: dict) -> dict:
    """Check a shape object and return its descriptor's arguments."""
    if "cat" not in raw or "sign" not in raw:
        raise ValueError("a shape object needs cat and sign")
    if "val" in raw:
        raise ValueError("a shape object holds no val")
    if "args" in raw:
        raise ValueError("a shape object holds no args")
    shape = dict(category=raw["cat"], signedness=raw["sign"],
                 callee_id=raw.get("callee"))
    InstrDescriptor(**shape)  # the shape's own checks, at its definition
    return shape


def _reference_row_to_event(row, shapes: list) -> AccessEvent:
    if not isinstance(row, list) or len(row) != len(COLUMNS):
        raise ValueError(f"an event row is a list of {len(COLUMNS)} values")
    record = dict(zip(COLUMNS, row))
    raw = record["instr"]
    if isinstance(raw, dict):
        shapes.append(_reference_shape(raw))
        shape = shapes[-1]
    elif isinstance(raw, int) and not isinstance(raw, bool):
        if raw < 0 or raw >= len(shapes):
            raise ValueError(f"instr {raw} names no shape defined before it")
        shape = shapes[raw]
    else:
        raise ValueError("instr must be a shape object or a shape's index")
    instr = InstrDescriptor(**shape)
    val = record["val"]
    value = None if val is None else _parse_addr(val)
    args = record["args"]
    if args is not None:
        if not isinstance(args, list):
            raise ValueError(f"args must be a list, not {_shown(args)}")
        args = tuple(_reference_int_or_hex(a) for a in args)
    return AccessEvent(
        seq=record["seq"],
        thread_id=record["tid"],
        cpl=_CPL_UNWIRE.get(record["cpl"], record["cpl"]),
        kind=_KIND_UNWIRE.get(record["kind"], record["kind"]),
        address=_parse_addr(record["addr"]),
        operand_size=record["size"],
        instr=instr,
        rip=_parse_addr(record["rip"]),
        value=value,
        register_args=args,
    )


def reference_parse_trace(stream) -> TraceLog:
    """`trace.parse_trace` without descriptor sharing or unchecked events:
    one `json.loads` per line, and every event and descriptor built and
    checked through its constructor."""
    events: list[AccessEvent] = []
    module_range = (0, 0)
    saw_header = False
    shapes: list = []
    last_seq = None
    for lineno, line in enumerate(_iter_lines(stream), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(lineno, f"invalid JSON: {exc.msg}") from exc
        if not saw_header:
            if not isinstance(record, dict) or "module_range" not in record:
                raise TraceParseError(lineno, "first line must carry module_range")
            try:
                rng = record["module_range"]
                module_range = (_parse_addr(rng["lo"]), _parse_addr(rng["hi"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceParseError(lineno, f"bad module_range: {exc}") from exc
            if "columns" not in record:
                raise TraceParseError(
                    lineno, "header has no columns (a trace of an older format?)")
            if record["columns"] != list(COLUMNS):
                raise TraceParseError(
                    lineno, f"columns must be {json.dumps(COLUMNS)}, "
                    f"not {_shown(record['columns'])}")
            saw_header = True
            continue
        try:
            event = _reference_row_to_event(record, shapes)
        except (TypeError, ValueError) as exc:
            raise TraceParseError(lineno, str(exc)) from exc
        if last_seq is not None and event.seq <= last_seq:
            raise TraceOrderError(
                f"line {lineno}: seq {event.seq} not greater than {last_seq}"
            )
        last_seq = event.seq
        events.append(event)
    return TraceLog(events=tuple(events), module_range=module_range)


# -- whole-row trace writer oracle --------------------------------------


def reference_serialize_trace(log: TraceLog) -> bytes:
    """`trace.serialize_trace` without cached shapes: one `json.dumps` of
    a whole row per event, and a linear search of the shapes written so
    far, compared as JSON text."""
    if not log.events and log.module_range == (0, 0):
        return b""
    lines = [
        json.dumps(
            {
                "module_range": {
                    "lo": _hex(log.module_range[0]),
                    "hi": _hex(log.module_range[1]),
                },
                "columns": list(COLUMNS),
            }
        )
    ]
    written: list[str] = []  # the JSON of each shape defined so far
    for e in log.events:
        shape: dict = {"cat": e.instr.category, "sign": e.instr.signedness}
        if e.instr.callee_id is not None:
            shape["callee"] = e.instr.callee_id
        text = json.dumps(shape)
        if text in written:
            instr = written.index(text)
        else:
            written.append(text)
            instr = shape
        val = None if e.value is None else _hex(e.value)
        args = None if e.register_args is None else list(e.register_args)
        lines.append(json.dumps([e.seq, e.thread_id, _CPL_WIRE[e.cpl],
                                 _KIND_WIRE[e.kind], _hex(e.address),
                                 e.operand_size, _hex(e.rip), instr, val,
                                 args]))
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- byte-loop guest memory oracle --------------------------------------


def reference_read_memory(guest: Guest, address: int, size: int) -> bytes:
    """`Guest.read_memory` as it was before per-page slices."""
    out = bytearray()
    for offset in range(size):
        addr = address + offset
        page = guest.pages[addr // PAGE_SIZE]
        if page is None:
            raise SimulationError(f"read from unmapped {_hex(addr)}")
        out.append(page.content[addr % PAGE_SIZE])
    return bytes(out)


def reference_write_memory(guest: Guest, address: int, data: bytes) -> None:
    """`Guest.write_memory` as it was before per-page slices."""
    for offset, byte in enumerate(data):
        addr = address + offset
        page = guest.pages[addr // PAGE_SIZE]
        if page is None:
            raise SimulationError(f"write to unmapped {_hex(addr)}")
        page.content[addr % PAGE_SIZE] = byte


# -- per-call fastcall oracle ------------------------------------------


def reference_recover_call(log: TraceLog, call_event: AccessEvent,
                           allocations=(), mapped=()):
    """Fastcall parameters of one call event, by rescanning the whole log.

    The rule recover_calls implements in one pass, restated per call:
    the stack slots SP+0x20, SP+0x28, ... (SP = push address + 8) take
    the last write to them in the same thread, with a seq below the
    call's and after the thread's previous call/api-call; the scan stops
    at the first slot with no write.  A value is flagged as a pointer
    when it is non-zero and lies in an allocation or in `mapped`.
    """
    prior = []
    for e in log.events:
        if e.thread_id != call_event.thread_id or e.seq >= call_event.seq:
            continue
        if e.instr.category in ("call", "api-call"):
            prior.clear()
            continue
        if e.kind == "write":
            prior.append(e)
    reg_params = call_event.register_args or (0, 0, 0, 0)
    stack_params = []
    slot = call_event.address + 8 + 0x20
    while True:
        writes = [e for e in prior if e.address == slot]
        if not writes:
            break
        stack_params.append(writes[-1].value or 0)
        slot += 8
    if stack_params:
        param_count = 4 + len(stack_params)
    else:
        param_count = 4
        for value in reversed(reg_params):
            if value:
                break
            param_count -= 1
    flags = tuple(
        bool(v) and (any(a.contains(v) for a in allocations) or v in mapped)
        for v in list(reg_params) + stack_params
    )
    return CallRecord(
        callee_id=call_event.instr.callee_id,
        reg_params=tuple(reg_params),
        stack_params=tuple(stack_params),
        param_count=param_count,
        return_address=call_event.value,
        pointer_flags=flags,
        seq=call_event.seq,
        thread_id=call_event.thread_id,
        rip=call_event.rip,
    )


# -- stack-pattern and merged-bases oracles ----------------------------


def reference_find_stack_buffers(log: TraceLog) -> list[AllocationRecord]:
    """Stack-pattern records, thread by thread (by first appearance).

    A sub of exactly 0x20 immediately before a call is shadow space and
    ignored; larger subs yield a buffer shrunk by the shadow adjustment.
    A maximal run of k consecutive 16-byte-stepped zeroing stores yields
    a 16k-byte buffer at the lowest stored address.
    """
    records = []
    for threads in split_by_thread(log).values():
        for event in threads:
            if event.instr.category != "sub-sp":
                continue
            amount = event.value or 0
            if amount <= SHADOW_SPACE:
                continue
            records.append(AllocationRecord(
                base=event.address, size=amount - SHADOW_SPACE,
                source="stack-pattern", site_rip=event.rip,
            ))
        stores = [(index, event) for index, event in enumerate(threads)
                  if event.instr.category == "xmm-zero-store"]
        for run in _maximal_runs(stores, lambda a, b: (
                b[0] == a[0] + 1 and b[1].address == a[1].address + 16)):
            event = run[0][1]
            records.append(AllocationRecord(
                base=event.address, size=16 * len(run),
                source="stack-pattern", site_rip=event.rip,
            ))
    return records


def reference_collect_bases(log: TraceLog) -> list[AllocationRecord]:
    """The merge collect_bases makes, from the reference sources: heap
    hooks first (the last of a duplicate base wins), then each call's
    pointer parameters in call order, then the stack patterns, a later
    source never replacing a base; sorted by base."""
    heap = find_allocations(log)
    mapped = _Pointers(log)
    merged = {}
    for record in heap:
        merged[record.base] = record
    for event in log.events:
        if event.instr.category not in ("call", "api-call"):
            continue
        call = reference_recover_call(log, event, heap, mapped)
        for value, is_pointer in zip(call.reg_params + call.stack_params,
                                     call.pointer_flags):
            if is_pointer and value not in merged:
                merged[value] = AllocationRecord(
                    base=value, size=0, source="call-param",
                    site_rip=call.rip)
    for record in reference_find_stack_buffers(log):
        merged.setdefault(record.base, record)
    return sorted(merged.values(), key=lambda r: r.base)


# -- allocation records for owner lookups -------------------------------

# Unsorted, overlapping records, with size 0 (a DEFAULT_WINDOW window),
# 2^64-byte and empty (negative size) ranges, bases past 2^64, and
# duplicate bases from a small pool.
ALLOCATION_RECORDS = st.lists(
    st.builds(
        AllocationRecord,
        base=st.one_of(st.sampled_from([0, 0x1000, 0x1800, 1 << 64]),
                       st.integers(0, 0x4000), st.integers(0, 1 << 70)),
        size=st.one_of(st.just(0), st.just(1 << 64), st.integers(-8, -1),
                       st.integers(1, 0x2000)),
        source=st.sampled_from(["heap-hook", "call-param", "stack-pattern"]),
        site_rip=st.integers(0, 3),
    ),
    max_size=12,
)


def probe_addresses(records, rng: random.Random, extra=8):
    """Every range edge of the records, one off either side, plus a few
    random addresses below 0x8000."""
    probes = []
    for record in records:
        end = record.base + (record.size or DEFAULT_WINDOW)
        probes += [record.base - 1, record.base, end - 1, end]
    probes += [rng.randrange(0x8000) for _ in range(extra)]
    rng.shuffle(probes)
    return probes


def first_owner(records, address):
    """The record lookups must return: the first, in list order, that
    contains the address."""
    return next((r for r in records if r.contains(address)), None)


# -- straight-line reference interpreter -------------------------------


def reference_interpret(model: ProgramModel):
    """Log every monitored access of a model without any EPT machinery.

    Returns (kind, address, size, cpl, category, value) tuples in program
    order; transition markers appear as execute/other tuples at fetches
    following a mode switch.  Memory is a byte per address, where every
    byte no op wrote reads 0: a read logs the little-endian value of its
    bytes, and each write but a sub-sp's stores its value's low bytes.
    """
    out = []
    memory: dict[int, int] = {}
    sp = model.sp_init
    rip = model.entry_address
    mode = model.cpl
    last_reported = mode
    alloc_cursor = 0x9000

    def write(address, size, category, value):
        low = (value % (1 << 8 * size)).to_bytes(size, "little")
        memory.update(zip(range(address, address + size), low))
        out.append(("write", address, size, mode, category, value))

    for op in model.ops:
        if op.rip is not None:
            rip = op.rip
        if mode != last_reported:
            out.append(("execute", rip, 1, mode, "other", None))
            last_reported = mode
        if op.op == "mov-read":
            size = op.size or 8
            value = bytes(memory.get(address, 0)
                          for address in range(op.addr, op.addr + size))
            out.append(("read", op.addr, size, mode, op.cat or "int-move",
                        int.from_bytes(value, "little")))
        elif op.op == "mov-write":
            write(op.addr, op.size or 8, op.cat or "int-move", op.value or 0)
        elif op.op == "push":
            sp -= 8
            write(sp, 8, "push", op.value or 0)
        elif op.op == "sub-sp":
            sp -= op.amount or 0
            out.append(("write", sp, 8, mode, "sub-sp", op.amount or 0))
        elif op.op == "call":
            args = list(op.args or [])
            stack_args = args[4:] or [0] * op.n_stack
            for k, value in enumerate(stack_args):
                write(sp + 0x20 + 8 * k, 8, "int-move", value)
            sp -= 8
            write(sp, 8, "call", rip + INSTR_STRIDE)
        elif op.op == "alloc":
            size = op.size or 0
            npages = max((size + 4095) // 4096, 1)
            out.append(("execute", rip, 1, mode, "api-call", alloc_cursor))
            alloc_cursor += npages * 4096
        elif op.op == "xmm-zero":
            write(op.addr, 16, "xmm-zero-store", 0)
        elif op.op == "ret":
            sp += 8
        elif op.op == "mode-switch":
            mode = op.cpl or ("kernel" if mode == "user" else "user")
        rip += INSTR_STRIDE
    return out


def reference_transitions(model: ProgramModel):
    """The (index, address, cpl) of each transition marker that
    reference_interpret gives for the model: each execute/"other" tuple."""
    return [(index, address, cpl) for index, (kind, address, _, cpl, category, _)
            in enumerate(reference_interpret(model))
            if (kind, category) == ("execute", "other")]


def event_tuples(log: TraceLog):
    """The (kind, address, size, cpl, category, value) of each event, as
    reference_interpret gives them."""
    return [(e.kind, e.address, e.operand_size, e.cpl, e.instr.category,
             e.value) for e in log.events]


# -- brute-force LCMAP oracle ------------------------------------------


def brute_lcmap(p, q, tau):
    """Enumerate all contiguous run endpoints.

    Returns (length, end_index, end_index_prime): the longest run, ending
    at the smallest index in p and then the smallest index in q.
    Independent of the dynamic program: for every endpoint pair the run
    length is recomputed by walking backwards under the near predicate.
    """
    best_len = 0
    lengths = {}
    for i in range(len(p)):
        for j in range(len(q)):
            length = 0
            while (i - length >= 0 and j - length >= 0
                   and abs(p[i - length] - q[j - length]) <= tau):
                length += 1
            lengths[(i, j)] = length
            best_len = max(best_len, length)
    if best_len == 0:
        return 0, -1, -1
    return (best_len,) + min(end for end, l in lengths.items() if l == best_len)


# -- recursive diff oracle ---------------------------------------------


def reference_lcmap(first, second, tau):
    """The row-major O(mn) LCMAP dynamic program, one cell at a time.

    Returns (length, end_index, end_index_prime) with the tie-break
    lcmap promises.  The recursive diff was written against it, and it
    is the oracle for lcmap's bit-parallel kernel."""
    m, n = len(first), len(second)
    best = (0, -1, -1)  # length, end in first, end in second
    previous = [0] * (n + 1)
    for i in range(1, m + 1):
        current = [0] * (n + 1)
        for j in range(1, n + 1):
            if abs(first[i - 1] - second[j - 1]) <= tau:
                current[j] = previous[j - 1] + 1
                if current[j] > best[0]:
                    best = (current[j], i - 1, j - 1)
        previous = current
    return best


def reference_diff(p, q, tau=DEFAULT_TAU, threshold=DEFAULT_MATCH_THRESHOLD,
                   min_run=DEFAULT_MIN_RUN):
    """Greedy recursive diff: the LCMAP of a range is a matched run, and
    the ranges before and after it are diffed the same way.  Raises
    NotSimilarError below the threshold, and treats a min_run below 1 as
    1, like diff_modified."""
    first, second = tuple(p), tuple(q)
    min_run = max(min_run, 1)  # a zero-length run cannot split a range
    length = reference_lcmap(first, second, tau)[0]
    ratio = length / min(len(first), len(second)) if first and second else 0.0
    if ratio < threshold:
        raise NotSimilarError(ratio, threshold)
    report = DiffReport()

    def recurse(i0, i1, j0, j1):
        if i0 >= i1 and j0 >= j1:
            return
        length, end_i, end_j = reference_lcmap(
            first[i0:i1], second[j0:j1], tau)
        full_both = length == i1 - i0 == j1 - j0
        if length < min_run and not full_both:
            report.unmatched.append(((i0, i1), (j0, j1)))
            return
        mi0 = i0 + end_i - length + 1
        mj0 = j0 + end_j - length + 1
        recurse(i0, mi0, j0, mj0)
        report.matched.append(((mi0, mi0 + length), (mj0, mj0 + length)))
        recurse(mi0 + length, i1, mj0 + length, j1)

    recurse(0, len(first), 0, len(second))
    report.matched.sort()
    report.unmatched.sort()
    return report


def pathological_pair(n, tau=100):
    """n offsets 8 apart, and a copy with every third offset shifted by
    5 tau: the LCMAP of every range is two long, so the diff splits the
    pair into about n / 3 matched runs."""
    p = [8 * k for k in range(n)]
    q = [x + 5 * tau if k % 3 == 2 else x for k, x in enumerate(p)]
    return p, q


def random_pattern_pair(rng: random.Random, max_len=32, max_offset=1 << 16):
    """Half the time unrelated patterns, half the time a shared core with
    noise, so long common runs actually occur."""
    m = rng.randrange(0, max_len + 1)
    n = rng.randrange(0, max_len + 1)
    p = [rng.randrange(max_offset) for _ in range(m)]
    if rng.random() < 0.5:
        q = [rng.randrange(max_offset) for _ in range(n)]
    else:
        core_len = rng.randrange(0, min(m, max_len // 2) + 1)
        start = rng.randrange(0, m - core_len + 1) if m else 0
        core = [x + rng.randrange(-3, 4) for x in p[start:start + core_len]]
        prefix = [rng.randrange(max_offset) for _ in range(rng.randrange(0, 5))]
        suffix = [rng.randrange(max_offset) for _ in range(rng.randrange(0, 5))]
        q = prefix + core + suffix
    return p, q

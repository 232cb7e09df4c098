"""Simulated guest with switchable EPT permission profiles.

Models a single-vCPU guest: paged memory with a present bit per page,
four permission profiles with mode-based execution control (MBEC)
semantics, hidden hooks (execute-allowed / read-denied pages), demand
paging via injected page faults, and lazy entry-point capture.  The
monitor keeps its page state as two sets of page numbers: the hooked
pages (Guest.hooked) and those whose execute capture revokes
(Guest.exec_revoked).  So a hook or a revoke outlives the demand fault
that rebuilds its page, and one fetch branch of the run reports the
entry.  A page holds one byte array, which every read and write of the
program uses, so a hook changes nothing that the program can read.
Abstract program models are interpreted against this state: every data
access is trapped and logged as one event of the trace, and
instruction fetches go through the permission check for entry capture.
A mode transition is reported at the first fetch after it, as an
execute event of category "other" (transitions lists them).

A model file states its fields once, in two tables of trace's field
kinds: the header's keys (_MODEL_FIELDS) and an op line's
(_OP_FIELDS).  ProgramModel and ModelOp check each field by them,
serialize_model spells the fields by them and parse_model reads them
back by them.

Capture keeps its per-op work small.  A ModelOp is an immutable named
tuple, and the run unpacks each op once.  Every write the program makes
takes one store path: demand paging, the trap, then the masked write.
Every event is logged by one trap closure as one plain tuple of its
fields, with no AccessEvent check: ModelOp checks the access a mov op
logs, so every event of a run of checked ops is valid as built.  The
trace's columns are made of these rows once, when the run ends, and
handed to the TraceLog as they are.
Memory accesses that lie on one built page skip the per-page walk.
parse_model reads through trace's one reader (_read_rows), as
parse_trace does: a chunk of op lines per json.loads call where each
line holds one plain op, a chunk's ops built column by column
(_plain_ops), each with one tuple.__new__ call, and ModelOp's checks
run once per kind of op that the column checks cannot vouch for, on an
op built from that kind.
A chunk it declines is read again one line at a time (_record_to_op),
which alone reports errors.  The reader and the run keep the cyclic
collector paused while they build, and leave it as they found it: the
ops and the trace outlive them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, repeat
from operator import is_
from typing import IO, Iterable, NamedTuple, Optional, Union

from .trace import (
    CPL_VALUES,
    PAGE_SIZE,
    EventColumns,
    InstrDescriptor,
    TraceLog,
    _BOOL,
    _Bounds,
    _CATEGORY,
    _check,
    _check_operand,
    _Checked,
    _collector_paused,
    _columns,
    _CPL,
    _decode,
    _encode,
    _enum,
    _Field,
    _HEX,
    _hex,
    _hex_prefixed,
    _INT,
    _Int,
    _Ints,
    _NAT,
    _RANGE,
    _read_rows,
    _shown,
    _SIGN,
    _STR,
)

PROFILE_IDS = ("normal", "user-exec-denied", "kernel-exec-denied", "execute-only")

DEFAULT_ALLOC_BASE = 0x9000
DEFAULT_STACK_GUARD = 0x10000
INSTR_STRIDE = 4  # modeled instruction length; rip advances by this per op
_ADDRESS_LIMIT = 1 << 48  # canonical addresses lie below this


class SimulationError(RuntimeError):
    """The model referenced an address that is neither mapped nor allocatable."""


class ModelParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Allowed:
    pass


@dataclass(frozen=True)
class PageFault:
    pass


@dataclass(frozen=True)
class Violation:
    pass


# check_access hands out these three instances alone.
_ALLOWED, _PAGE_FAULT, _VIOLATION = Allowed(), PageFault(), Violation()


class _Page:
    """A built page: the one EPT bit kept on it, whether it is present,
    and its bytes.  Hooks and revoked execute are kept by page number, in
    Guest.hooked and Guest.exec_revoked, so that both outlive the page a
    demand fault replaces."""

    __slots__ = ("present", "content")

    def __init__(self):
        self.present = True
        self.content = bytearray(PAGE_SIZE)


class _PageTable(dict):
    """The pages built so far, by page number, over the mapped page
    numbers, which are kept as [first, end) intervals in the order they
    were mapped.  `table[number]` is the page, built on first touch
    where a range holds it, or None for an unmapped number, which it
    does not store; `get` never builds a page."""

    def __init__(self):
        super().__init__()
        self.ranges: list[tuple[int, int]] = []

    def __missing__(self, number: int) -> Optional[_Page]:
        if not any(first <= number < end for first, end in self.ranges):
            return None
        page = self[number] = _Page()
        return page


class Guest:
    """Single-vCPU guest memory state.

    Never share a Guest mutably between threads: run one model per
    Guest, and each run gives a trace of its own.
    """

    def __init__(self):
        self.pages = _PageTable()
        self.active_profile = "normal"  # one of PROFILE_IDS
        self.mode = "user"
        # The numbers of the hooked pages and of the pages whose execute
        # permission is revoked: kept by number, so a page a demand fault
        # rebuilds stays hooked or revoked.
        self.hooked: set[int] = set()
        self.exec_revoked: set[int] = set()
        # Allocations are handed out one after another from
        # DEFAULT_ALLOC_BASE, so [DEFAULT_ALLOC_BASE, _alloc_cursor) is
        # the allocatable range.
        self._alloc_cursor = DEFAULT_ALLOC_BASE

    # -- memory layout -------------------------------------------------

    def map_range(self, lo: int, hi: int) -> None:
        """Map the pages [lo, hi) overlaps.  None is built here: each is
        built on first touch, so the range's size costs nothing."""
        self.pages.ranges.append(
            (lo // PAGE_SIZE, (hi + PAGE_SIZE - 1) // PAGE_SIZE))

    def allocate(self, size: int) -> int:
        """Reserve a demand-paged buffer; pages appear on first fault."""
        size = max(int(size), 1)
        base = self._alloc_cursor
        npages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        self._alloc_cursor = base + npages * PAGE_SIZE
        return base

    def is_allocatable(self, address: int) -> bool:
        return DEFAULT_ALLOC_BASE <= address < self._alloc_cursor

    def page_present(self, address: int) -> bool:
        page = self.pages[address // PAGE_SIZE]
        return page is not None and page.present

    # -- permission semantics ------------------------------------------

    def check_access(self, address: int, kind: str, cpl: str):
        """Pure permission decision: one shared Allowed, Violation or
        PageFault.

        Not-present pages yield the PageFault, distinct from a permission
        Violation.  A read of a hooked page (one in hooked) is a
        Violation under every profile.  Under "normal", execute is denied
        in both modes on a page in exec_revoked, hooked or not.  Under
        the other profiles a hooked page executes, and any other page
        follows the profile's per-mode execute rule (MBEC).
        """
        _check_canonical(address)
        page = self.pages[number := address // PAGE_SIZE]
        if page is None or not page.present:
            return _PAGE_FAULT
        profile = self.active_profile
        if kind == "read" and number in self.hooked:
            return _VIOLATION
        if profile == "normal":
            allowed = kind != "execute" or number not in self.exec_revoked
        elif kind == "execute" and number in self.hooked:
            allowed = True
        elif profile == "user-exec-denied":
            allowed = not (kind == "execute" and cpl == "user")
        elif profile == "kernel-exec-denied":
            allowed = not (kind == "execute" and cpl == "kernel")
        else:  # execute-only
            allowed = kind == "execute"
        return _ALLOWED if allowed else _VIOLATION

    def switch_profile(self, profile_id: str) -> None:
        if profile_id not in PROFILE_IDS:
            raise ValueError(f"unknown profile id {profile_id!r}")
        self.active_profile = profile_id

    # -- hooks and faults ----------------------------------------------

    def install_hidden_hook(self, address: int, hooked_bytes: bytes) -> None:
        """Hook every page the bytes overlap: its number joins hooked, so
        that the permission check traps its reads and lets it execute.
        The bytes set only the span: no byte of memory changes, since the
        program reads and writes each page's one byte array and nothing
        fetches or decodes instruction bytes.  A page in the span that is
        unmapped or not present raises SimulationError, and then no page
        is hooked."""
        numbers = range(address // PAGE_SIZE,
                        (address + max(len(hooked_bytes), 1) - 1) // PAGE_SIZE + 1)
        if not all(self.page_present(number * PAGE_SIZE) for number in numbers):
            raise SimulationError(f"cannot hook non-present page at {_hex(address)}")
        self.hooked.update(numbers)

    def inject_page_fault(self, address: int) -> str:
        """Materialize a demand-zero page; 'injected' or 'already-present'."""
        number = address // PAGE_SIZE
        page = self.pages[number]
        if page is not None and page.present:
            return "already-present"
        self.pages[number] = _Page()
        return "injected"

    # -- content access ------------------------------------------------

    def read_memory(self, address: int, size: int) -> bytes:
        """Read bytes page by page, hooked pages alike."""
        lo = address % PAGE_SIZE
        page = self.pages.get(address // PAGE_SIZE)
        if page is not None and 0 < size <= PAGE_SIZE - lo:  # one built page
            return bytes(page.content[lo:lo + size])
        return b"".join(page.content[lo:hi] for _, page, lo, hi
                        in self._page_spans(address, size, "read from"))

    def write_memory(self, address: int, data: bytes) -> None:
        """Write bytes page by page; the pages before an unmapped one keep
        what was written to them."""
        size = len(data)
        lo = address % PAGE_SIZE
        page = self.pages.get(address // PAGE_SIZE)
        if page is not None and 0 < size <= PAGE_SIZE - lo:  # one built page
            page.content[lo:lo + size] = data
            return
        for start, page, lo, hi in self._page_spans(address, size, "write to"):
            page.content[lo:hi] = data[start:start + hi - lo]

    def _page_spans(self, address: int, size: int, action: str):
        """Yield (start, page, lo, hi) for each page that [address,
        address + size) overlaps, in address order: bytes lo:hi of `page`
        hold the range's bytes from `start` on.  Raises SimulationError
        at the first byte on an unmapped page, once the spans before it
        have been yielded."""
        start = 0
        while start < size:
            addr = address + start
            page = self.pages[addr // PAGE_SIZE]
            if page is None:
                raise SimulationError(f"{action} unmapped {_hex(addr)}")
            lo = addr % PAGE_SIZE
            hi = min(PAGE_SIZE, lo + size - start)
            yield start, page, lo, hi
            start += hi - lo


def _check_canonical(address: int, size: int = 1) -> None:
    """Raise ValueError, naming the address and size, unless all of
    [address, address + size) lies below 2**48."""
    if address < 0 or address + size > _ADDRESS_LIMIT:
        raise ValueError(f"address {address:#x} (size {size}) outside "
                         "48-bit canonical range")


# -- program models -----------------------------------------------------

MODEL_OPS = (
    "mov-read",
    "mov-write",
    "push",
    "call",
    "sub-sp",
    "xmm-zero",
    "alloc",
    "ret",
    "mode-switch",
    "nop",
)
_MOV_OPS = ("mov-read", "mov-write")  # the ops whose access a model sizes
# The categories a mov-read or mov-write may log its access under: the
# others are a push, a call or the capture's own events.
ACCESS_CATEGORIES = ("int-move", "float-move", "xmm-zero-store", "other")


class _OpFields(NamedTuple):
    """ModelOp's fields; ModelOp adds the checks."""

    op: str
    addr: Optional[int] = None
    size: Optional[int] = None
    value: Optional[int] = None
    callee: Optional[str] = None
    args: Optional[tuple[int, ...]] = None
    n_stack: int = 0
    amount: Optional[int] = None
    cpl: Optional[str] = None
    cat: Optional[str] = None
    sign: Optional[str] = None
    rip: Optional[int] = None  # optional override of the modeled rip


class ModelOp(_Checked, _OpFields):
    """One op of a program model, an immutable named tuple of its twelve
    fields, as AccessEvent is one of its ten, made by the same checking
    constructor (_Checked).

    Its checks are each field's by its key in _OP_FIELDS, then the rules
    between fields: a mov-read, mov-write or xmm-zero needs an addr, and
    the access a mov-read or mov-write logs passes AccessEvent's operand
    rules under a data category (ACCESS_CATEGORIES).  So the run checks
    no event it logs.  The model reader builds most ops with
    tuple.__new__(ModelOp, fields), which checks nothing, and runs the
    checks once per (op, addr or not, cpl, cat, sign, size, n_stack), on
    an op built from that key: every other field passes its checks on
    every op once its column passes that reader's column checks
    (_plain_ops).
    """

    __slots__ = ()
    _TUPLE_AT = _OpFields._fields.index("args")

    def __post_init__(self):
        """The checks every public way of making an op runs."""
        _check(_OP_FIELDS, self)
        op, cat = self.op, self.cat
        if self.addr is None and op in ("mov-read", "mov-write", "xmm-zero"):
            raise ValueError(f"model op {_shown(op)} needs an addr")
        if op in _MOV_OPS:  # the access the run logs; op[4:] is its kind
            if cat is not None and cat not in ACCESS_CATEGORIES:
                raise ValueError(f"model op {_shown(op)} cannot log "
                                 f"category {_shown(cat)}")
            _check_operand(op[4:], self.size or 8, cat or "int-move")


# A model file's op keys, in the order an op line spells them.  The run
# puts an addr, value, rip, amount or stack argument into a trace, which
# spells it in 0x-hex, so none is ever negative.  n_stack, the one field
# whose work the file's size does not bound, is at most the number of
# 8-byte slots the stack mapping holds above sp_init.
_OP_FIELDS = (
    _Field("op", _enum(MODEL_OPS, "unknown model op")),
    _Field("addr", _HEX, optional=True),
    _Field("value", _HEX, optional=True),
    _Field("rip", _HEX, optional=True),
    _Field("size", _INT, optional=True),
    _Field("amount", _NAT, optional=True),
    _Field("callee", _STR, optional=True),
    _Field("cpl", _CPL, optional=True),
    _Field("cat", _CATEGORY, optional=True),
    _Field("sign", _SIGN, optional=True),
    _Field("args", _Ints(each="argument"), optional=True),
    _Field("n_stack", _Int(natural=True, most=DEFAULT_STACK_GUARD // 8),
           omit=0),
)


@dataclass(frozen=True)
class ProgramModel:
    """Deterministic abstract stand-in for a guest binary.  It is frozen,
    and its checks run when it is made: every op must be a ModelOp, and
    every other field passes its checks in _MODEL_FIELDS.  The run
    trusts every field to be what was checked.  It holds its ops as a
    list, and each (lo, hi) range as a tuple, as parse_model gives
    them."""

    ops: list[ModelOp]
    entry_page: int
    sp_init: int
    tid: int = 0
    cpl: str = "user"
    entry_present: bool = True
    mapped: list[tuple[int, int]] = field(default_factory=list)
    module_range: Optional[tuple[int, int]] = None

    def __post_init__(self):
        object.__setattr__(self, "ops", list(self.ops))
        if not {ModelOp}.issuperset(map(type, self.ops)):
            raise ValueError("every op must be a ModelOp")
        _check(_MODEL_FIELDS, self)
        object.__setattr__(self, "mapped", list(map(tuple, self.mapped)))
        if self.module_range is not None:
            object.__setattr__(self, "module_range", tuple(self.module_range))

    @property
    def entry_address(self) -> int:
        return self.entry_page * PAGE_SIZE

    def resolved_module_range(self) -> tuple[int, int]:
        if self.module_range is not None:
            return self.module_range
        lo = self.entry_address
        span = max(len(self.ops) * INSTR_STRIDE, 1)
        hi = lo + ((span + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        return (lo, hi)


# A model file's header keys, in the order it spells them.
_MODEL_FIELDS = (
    _Field("entry_page", _INT),
    _Field("sp_init", _HEX),
    _Field("tid", _INT),
    _Field("cpl", _CPL),
    _Field("entry_present", _BOOL),
    _Field("mapped", _Bounds(_HEX, many=True), omit=[]),
    _Field("module_range", _RANGE, optional=True),
)
_OP_INT_KEYS = tuple(f.key for f in _OP_FIELDS if isinstance(f.kind, _Int))
_OP_NATURAL_KEYS = {f.key for f in _OP_FIELDS
                    if f.key in _OP_INT_KEYS and f.kind.natural}
_OP_KEYS = frozenset(ModelOp._fields)
_OP_DEFAULTS = tuple(map(ModelOp._field_defaults.get, ModelOp._fields))


def parse_model(stream: Union[bytes, str, IO, Iterable[str]]) -> ProgramModel:
    """Parse a line-delimited program model (header line + one op per line).

    Bytes, text and streams alike are read through trace._read_rows: a
    chunk of op lines per json.loads call, with the cyclic collector
    paused, and the chunk's ops built column by column (_plain_ops)
    from only the values that _record_to_op takes as they are.  A chunk
    that _plain_ops declines is read again line by line through
    _record_to_op, which alone reports errors in op lines, so both ways
    give the same ops.  The header is checked on its own line, before
    any op line (_model_header), as parse_trace checks its own.
    """
    ops: list[ModelOp] = []
    header = _read_rows(stream, ModelParseError, _model_header, dict,
                        partial(_plain_ops, ops), _record_to_op, ops.append)
    if header is None:
        raise ModelParseError(1, "empty model file (missing header)")
    return replace(header, ops=ops)


def _record_to_op(lineno: int, record) -> ModelOp:
    """The op of the record on op line `lineno`; a ModelParseError that
    names the line says what is wrong."""
    try:
        if not isinstance(record, dict):
            raise ValueError("an op line must be a JSON object")
        if "op" not in record:
            raise ValueError("missing op")
        return ModelOp(**_decode(_OP_FIELDS, record))
    except (TypeError, ValueError) as exc:
        raise ModelParseError(lineno, str(exc)) from exc


def _model_header(lineno: int, record) -> ProgramModel:
    """The model, with no ops yet, of the header record on line
    `lineno`, which must be an object carrying entry_page."""
    if not isinstance(record, dict) or "entry_page" not in record:
        raise ModelParseError(lineno, "first line must carry entry_page")
    try:
        return ProgramModel([], **_decode(_MODEL_FIELDS, record))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(lineno, f"bad header: {exc}") from exc


# The types of the values _plain_ops takes under each key, with null
# meaning the key's default where that is None; an int key's strings are
# 0x-hex.
_OP_TYPES = {f.key: f.kind.types | ({type(None)} if f.optional else set())
             for f in _OP_FIELDS}


def _plain_ops(ops: list[ModelOp], records: list[dict], checked: set
               ) -> Optional[bool]:
    """Add the ops of a chunk's records, built column by column, to
    `ops` and give True; or give None unless every value is one
    _record_to_op takes as it is, of a type its field's kind spells
    (_OP_TYPES, derived from _OP_FIELDS): every key an op key, a string
    op, an int (never a bool or a float), a 0x-hex string or null under
    an int key, but no null n_stack and no negative number under a key
    whose kind is never negative (_OP_NATURAL_KEYS), a string or null
    under a string key, and a null or a list of non-negative ints as
    args.  So no record holds an array with two objects side by side.

    Each op is built by one tuple.__new__ call.  ModelOp's checks run
    once for each (op, addr or not, cpl, cat, sign, size, n_stack) in the
    chunk that `checked` does not hold yet, on an op built from that key
    with addr 0 where it has one and every other field at its default: every
    other field passes its own check in _OP_FIELDS on every op once its
    column passes the checks here.  (A chunk with no op at all leaves
    None in its op column, which those checks reject.)
    """
    present = set(chain.from_iterable(records))
    if not present <= _OP_KEYS:
        return None
    columns = [[default] * len(records) for default in _OP_DEFAULTS]
    for key in present:
        at = ModelOp._fields.index(key)
        column = list(map(dict.get, records, repeat(key),
                          repeat(_OP_DEFAULTS[at])))
        types = set(map(type, column))
        if not types <= _OP_TYPES[key]:
            return None
        if str in types and key in _OP_INT_KEYS:
            if not _hex_prefixed([v for v in column if type(v) is str]):
                return None
            column = [int(v, 16) if type(v) is str else v for v in column]
        elif key == "args":
            numbers = list(chain.from_iterable(filter(None, column)))
            if (not set(map(type, numbers)) <= {int}
                    or min(numbers, default=0) < 0):
                return None
            column = [v if v is None else tuple(v) for v in column]
        # Only a JSON int can be negative: int(s, 16) took no "0x-".
        if (key in _OP_NATURAL_KEYS and int in types
                and min(filter(None, column), default=0) < 0):
            return None
        columns[at] = column
    names, addrs, sizes, _, _, _, n_stacks, _, cpls, cats, signs, _ = columns
    new = set(zip(names, map(is_, addrs, repeat(None)), cpls, cats, signs,
                  sizes, n_stacks)) - checked
    for op, bare, cpl, cat, sign, size, n_stack in new:
        ModelOp(op, None if bare else 0, size, n_stack=n_stack, cpl=cpl,
                cat=cat, sign=sign)
    checked.update(new)
    ops += map(tuple.__new__, repeat(ModelOp), zip(*columns))
    return True


def serialize_model(model: ProgramModel) -> bytes:
    """The model file of `model`: its header, then one line per op, each
    spelled by its table (_MODEL_FIELDS, _OP_FIELDS)."""
    lines = [json.dumps(_encode(_MODEL_FIELDS, model))]
    lines += [json.dumps(_encode(_OP_FIELDS, op)) for op in model.ops]
    return ("\n".join(lines) + "\n").encode("utf-8")


def build_guest(model: ProgramModel) -> Guest:
    """Prepare a Guest matching the model's static layout."""
    guest = Guest()
    guest.mode = model.cpl
    lo, hi = model.resolved_module_range()
    guest.map_range(lo, hi)
    if not model.entry_present:
        entry = guest.pages[model.entry_page]
        if entry is not None:
            entry.present = False
    guest.map_range(model.sp_init - DEFAULT_STACK_GUARD, model.sp_init + DEFAULT_STACK_GUARD)
    for mlo, mhi in model.mapped:
        guest.map_range(mlo, mhi)
    return guest


# -- interpreter --------------------------------------------------------


def run(guest: Guest, model: ProgramModel) -> TraceLog:
    """Interpret the model against the guest and return the trace."""
    log, _ = _run(guest, model)
    return log


def capture_entry_point(guest: Guest, model: ProgramModel):
    """Run with lazy entry capture; return (entry_address, trace prefix).

    The entry page's number joins guest.exec_revoked before the run, so
    the first fetch on it surfaces as a Violation at the entry address,
    also where a page fault injected first rebuilt the page or a hook
    lies on it.
    The run then takes the number out of the set and continues.  A run
    that never fetches from the entry page raises SimulationError and
    leaves the number in the set.
    """
    guest.exec_revoked.add(model.entry_page)
    log, entry = _run(guest, model)
    if entry is None:
        raise SimulationError("model exhausted before executing the entry page")
    prefix = TraceLog(log.events[:entry + 1], log.module_range)
    return log.events[entry].address, prefix


def transitions(log: TraceLog) -> list[tuple[int, str]]:
    """The (seq, mode) of each transition report in a trace that run or
    capture_entry_point gives: each execute event of category "other".

    A capture_entry_point trace ends in its entry event, which is such an
    event too, so it is listed as well, with no switch before it: the
    prefix of a two-nop model that starts in user mode gives
    [(0, "user")].
    """
    columns = log.columns
    return [(seq, cpl) for seq, cpl, kind, instr in zip(
                columns.seq, columns.cpl, columns.kind, columns.instr)
            if kind == "execute" and instr.category == "other"]


@_collector_paused()  # the trace outlives the run
def _run(guest: Guest, model: ProgramModel):
    """(The model's trace, the index of its entry event or None).

    A fetch that the permission check denies on a page whose number is
    in guest.exec_revoked is an entry: it is logged as an execute event
    of category "other", and the number leaves the set.  Errors raised
    by an op (SimulationError, ValueError) are raised again, of the same
    type, with "op N: " before the message, counting op lines from 1.

    Each event is logged as one plain tuple of its fields, with no
    AccessEvent check, and the log's columns are made of these rows in
    one transposition at the end, which the TraceLog shares as they
    are (an EventColumns).  It needs no check: every field
    those checks read is fixed by the op that logs the event or comes
    from a checked ModelOp or ProgramModel, but for the guest's mode,
    which is checked here.
    """
    if guest.mode not in CPL_VALUES:
        raise ValueError(f"bad cpl {_shown(guest.mode)}")
    rows: list[tuple] = []
    # One descriptor per instruction shape, which the events share
    # while each keeps its own value and register arguments.
    shapes: dict = {}
    tid = model.tid
    module_range = model.resolved_module_range()
    sp = model.sp_init
    rip = model.entry_address
    last_mode = guest.mode
    entry = None

    pages = guest.pages
    built_page = pages.get

    def demand_page(address: int, size: int, lazy_code: bool = False) -> None:
        first, last = address // PAGE_SIZE, (address + size - 1) // PAGE_SIZE
        if first == last:
            built = built_page(first)
            if built is not None and built.present:
                return
        for page in range(first, last + 1):
            built = pages[page]
            if built is not None and built.present:
                continue
            addr = page * PAGE_SIZE
            if not (lazy_code or guest.is_allocatable(addr)
                    or page == model.entry_page):
                raise SimulationError(
                    f"access to unmapped, un-allocatable address {_hex(address)}"
                )
            guest.inject_page_fault(addr)
            trap("read", address if page == first else addr, 1,
                 "page-fault")

    def trap(kind, address, size, cat, sign="n/a", callee=None, args=None,
             value=None):
        """Log an event at rip: every access to present pages is trapped."""
        if address < 0 or address + size > _ADDRESS_LIMIT:
            _check_canonical(address, size)
        instr = shapes.get((cat, sign, callee))
        if instr is None:
            instr = shapes[cat, sign, callee] = InstrDescriptor(
                cat, sign, callee)
        rows.append((len(rows), tid, guest.mode, kind, address, size, instr,
                     rip, value, args))

    def store(address, size, value, cat, sign="n/a", callee=None, args=None):
        """A trapped write of `value`'s low `size` bytes."""
        demand_page(address, size)
        trap("write", address, size, cat, sign, callee, args, value)
        mask = (1 << 8 * size) - 1
        guest.write_memory(address, (value & mask).to_bytes(size, "little"))

    try:
        for number, (name, addr, size, value, callee, args, n_stack, amount,
                     cpl, cat, sign, op_rip) in enumerate(model.ops, 1):
            if op_rip is not None:
                rip = op_rip
            # Instruction fetch: demand paging, entry capture, transition trap.
            fetch = guest.check_access(rip, "execute", guest.mode)
            if fetch is not _ALLOWED:
                if fetch is _PAGE_FAULT:
                    demand_page(rip, 1, lazy_code=True)
                    fetch = guest.check_access(rip, "execute", guest.mode)
                if (fetch is _VIOLATION
                        and rip // PAGE_SIZE in guest.exec_revoked):
                    entry = len(rows)
                    trap("execute", rip, 1, "other")
                    guest.exec_revoked.discard(rip // PAGE_SIZE)
            if guest.mode != last_mode:
                # MBEC: the fetch raises an EPT violation under the profile
                # kept for the previous mode, which denies execute in the
                # other one, on a hidden-hook page too.  Legacy: the U/S-bit
                # mismatch page-faults it; the monitor swallows the fault.
                # Either way the monitor reports the switch.
                trap("execute", rip, 1, "other")
                last_mode = guest.mode

            if name == "mov-read":
                size = size or 8
                demand_page(addr, size)
                value = int.from_bytes(guest.read_memory(addr, size), "little")
                trap("read", addr, size, cat or "int-move",
                     sign=sign or "n/a", value=value)
            elif name == "mov-write":
                store(addr, size or 8, value or 0, cat or "int-move",
                      sign or "n/a")
            elif name == "push":
                sp -= 8
                store(sp, 8, value or 0, "push")
            elif name == "sub-sp":
                amount = amount or 0
                sp -= amount
                demand_page(sp, 8)
                trap("write", sp, 8, "sub-sp", value=amount)
            elif name == "call":
                args = args or ()
                for index, value in enumerate(args[4:] or (0,) * n_stack):
                    store(sp + 0x20 + 8 * index, 8, value, "int-move")
                sp -= 8
                store(sp, 8, rip + INSTR_STRIDE, "call", callee=callee,
                      args=(args + (0, 0, 0, 0))[:4])
            elif name == "alloc":
                size = size or 0
                base = guest.allocate(size)
                # Hidden hook on the allocator: the call and its modeled
                # return value surface as one api-call event (size in the
                # first register slot, returned base in the value channel).
                trap("execute", rip, 1, "api-call",
                     callee=callee or "NtAllocateVirtualMemory",
                     args=(size, 0, 0, 0), value=base)
            elif name == "xmm-zero":
                store(addr, 16, 0, "xmm-zero-store")
            elif name == "ret":
                sp += 8
            elif name == "mode-switch":
                guest.mode = cpl or ("kernel" if guest.mode == "user" else "user")
            rip += INSTR_STRIDE  # a nop does nothing but this
    except (SimulationError, ValueError) as exc:
        raise type(exc)(f"op {number}: {exc}") from exc

    return TraceLog(EventColumns(_columns(rows)), module_range), entry

"""Simulated guest with switchable EPT permission profiles.

Models a single-vCPU guest: paged memory with per-page permissions, four
permission profiles with mode-based execution control (MBEC) semantics,
hidden hooks (execute-allowed / read-denied pages), demand paging via
injected page faults, and lazy entry-point capture.  Abstract program
models are interpreted against this state: every data access is trapped
and logged as one event of the trace, and instruction fetches go
through the permission check for entry capture.  A mode transition is
reported at the first fetch after it, by MBEC and legacy detection
alike, so both give one trace.

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
from dataclasses import dataclass, field
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
TRANSITION_MODES = ("mbec", "legacy")

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


@dataclass
class PagePerms:
    exec_user: bool = True
    exec_kernel: bool = True
    present: bool = True
    hidden_hook: bool = False


@dataclass(frozen=True)
class Allowed:
    pass


_ALLOWED = Allowed()  # check_access hands out this one instance


@dataclass(frozen=True)
class PageFault:
    address: int


@dataclass(frozen=True)
class Violation:
    address: int
    kind: str
    cpl: str
    profile: str
    rip: int


class _Page:
    __slots__ = ("perms", "content", "pristine")

    def __init__(self):
        self.perms = PagePerms()
        self.content = bytearray(PAGE_SIZE)
        self.pristine: Optional[bytearray] = None  # set while hooked


class _PageTable(dict):
    """The pages built so far, by page number, over the mapped page
    numbers, which are kept as [first, end) intervals in the order they
    were mapped.  `table[number]` builds a page on first touch where a
    range holds it and raises KeyError for an unmapped one; `get` never
    builds a page."""

    def __init__(self):
        super().__init__()
        self.ranges: list[tuple[int, int]] = []

    def __missing__(self, number: int) -> _Page:
        if not any(first <= number < end for first, end in self.ranges):
            raise KeyError(number)
        page = self[number] = _Page()
        return page

    def lookup(self, number: int) -> Optional[_Page]:
        """The page `number`, or None when it is neither built nor
        mapped."""
        try:
            return self[number]
        except KeyError:
            return None


class Guest:
    """Single-vCPU guest memory state.

    Never share a Guest mutably between threads: run one model per
    Guest, and each run gives a trace of its own.
    """

    def __init__(self):
        self.pages = _PageTable()
        self.active_profile = "normal"  # one of PROFILE_IDS
        self.mode = "user"
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
        page = self.pages.lookup(address // PAGE_SIZE)
        return page is not None and page.perms.present

    # -- permission semantics ------------------------------------------

    def check_access(self, address: int, kind: str, cpl: str, rip: int = 0):
        """Pure permission decision: Allowed, Violation, or PageFault.

        Not-present pages yield a PageFault outcome, distinct from a
        permission Violation.
        """
        _check_canonical(address)
        try:
            page = self.pages[address // PAGE_SIZE]
        except KeyError:
            return PageFault(address)
        if not page.perms.present:
            return PageFault(address)
        profile = self.active_profile
        perms = page.perms
        if perms.hidden_hook:
            # Hooked bytes execute; reads trap and are served pristine.
            if kind == "execute":
                return _ALLOWED
            if kind == "read":
                return Violation(address, kind, cpl, profile, rip)
        if profile == "normal":
            allowed = kind != "execute" or (
                perms.exec_user if cpl == "user" else perms.exec_kernel)
        elif profile == "user-exec-denied":
            allowed = not (kind == "execute" and cpl == "user")
        elif profile == "kernel-exec-denied":
            allowed = not (kind == "execute" and cpl == "kernel")
        else:  # execute-only
            allowed = kind == "execute"
        if allowed:
            return _ALLOWED
        return Violation(address, kind, cpl, profile, rip)

    def switch_profile(self, profile_id: str) -> None:
        if profile_id not in PROFILE_IDS:
            raise ValueError(f"unknown profile id {profile_id!r}")
        self.active_profile = profile_id

    # -- hooks and faults ----------------------------------------------

    def install_hidden_hook(self, address: int, hooked_bytes: bytes) -> None:
        """Hook every page the bytes overlap: a read of a hooked page is
        served the copy it held before its first hook, and a fetch runs
        the hooked bytes.  A page in the span that is unmapped or not
        present raises SimulationError, and then no page changes."""
        numbers = range(address // PAGE_SIZE,
                        (address + max(len(hooked_bytes), 1) - 1) // PAGE_SIZE + 1)
        pages = [self.pages.lookup(number) for number in numbers]
        if None in pages or not all(page.perms.present for page in pages):
            raise SimulationError(f"cannot hook non-present page at {_hex(address)}")
        for page in pages:
            if page.pristine is None:
                page.pristine = bytearray(page.content)
            page.perms.hidden_hook = True
        self.write_memory(address, hooked_bytes)  # content only, once hooked

    def inject_page_fault(self, address: int) -> str:
        """Materialize a demand-zero page; 'injected' or 'already-present'."""
        number = address // PAGE_SIZE
        page = self.pages.lookup(number)
        if page is not None and page.perms.present:
            return "already-present"
        self.pages[number] = _Page()
        return "injected"

    # -- content access ------------------------------------------------

    def read_memory(self, address: int, size: int) -> bytes:
        """Read bytes, serving the pristine view on hidden-hook pages."""
        lo = address % PAGE_SIZE
        page = self.pages.get(address // PAGE_SIZE)
        if page is not None and 0 < size <= PAGE_SIZE - lo:  # one built page
            source = page.pristine if page.perms.hidden_hook else page.content
            return bytes(source[lo:lo + size])
        out = bytearray()
        for _, page, lo, hi in self._page_spans(address, size, "read from"):
            source = page.pristine if page.perms.hidden_hook else page.content
            out += source[lo:hi]
        return bytes(out)

    def write_memory(self, address: int, data: bytes) -> None:
        """Write bytes page by page; the pages before an unmapped one keep
        what was written to them.  An unhooked page's pristine copy
        follows its content."""
        size = len(data)
        lo = address % PAGE_SIZE
        page = self.pages.get(address // PAGE_SIZE)
        if page is not None and 0 < size <= PAGE_SIZE - lo:  # one built page
            page.content[lo:lo + size] = data
            if page.pristine is not None and not page.perms.hidden_hook:
                page.pristine[lo:lo + size] = data
            return
        for start, page, lo, hi in self._page_spans(address, size, "write to"):
            chunk = data[start:start + hi - lo]
            page.content[lo:hi] = chunk
            if page.pristine is not None and not page.perms.hidden_hook:
                page.pristine[lo:hi] = chunk

    def _page_spans(self, address: int, size: int, action: str):
        """Yield (start, page, lo, hi) for each page that [address,
        address + size) overlaps, in address order: bytes lo:hi of `page`
        hold the range's bytes from `start` on.  Raises SimulationError
        at the first byte on an unmapped page, once the spans before it
        have been yielded."""
        start = 0
        while start < size:
            addr = address + start
            try:
                page = self.pages[addr // PAGE_SIZE]
            except KeyError:
                raise SimulationError(f"{action} unmapped {_hex(addr)}") from None
            lo = addr % PAGE_SIZE
            hi = min(PAGE_SIZE, lo + size - start)
            yield start, page, lo, hi
            start += hi - lo


def _check_canonical(address: int, size: int = 1) -> None:
    """Raise ValueError unless all of [address, address + size) lies
    below 2**48."""
    if address < 0 or address + size > _ADDRESS_LIMIT:
        raise ValueError("address outside 48-bit canonical range")


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
    checks once per (op, addr or not, cpl, cat, sign, size), on an op
    built from that key: every other field passes its checks on every
    op once its column passes that reader's column checks (_plain_ops).
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
# spells it in 0x-hex, so none is ever negative.
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
    _Field("n_stack", _INT, omit=0),
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
    give the same ops.
    """
    ops: list[ModelOp] = []
    header = _read_rows(stream, ModelParseError, _model_header, dict,
                        partial(_plain_ops, ops), _record_to_op, ops.extend)
    if header is None:
        raise ModelParseError(1, "empty model file (missing header)")
    try:
        return ProgramModel(ops, **_decode(_MODEL_FIELDS, header))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(1, f"bad header: {exc}") from exc


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


def _model_header(lineno: int, record) -> dict:
    """The header record, which must be an object carrying entry_page."""
    if not isinstance(record, dict) or "entry_page" not in record:
        raise ModelParseError(lineno, "first line must carry entry_page")
    return record


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
    once for each (op, addr or not, cpl, cat, sign, size) in the chunk
    that `checked` does not hold yet, on an op built from that key with
    addr 0 where it has one and every other field at its default: every
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
    names, addrs, sizes, *_, cpls, cats, signs, _ = columns
    new = set(zip(names, map(is_, addrs, repeat(None)), cpls, cats, signs,
                  sizes)) - checked
    for op, bare, cpl, cat, sign, size in new:
        ModelOp(op, None if bare else 0, size, cpl=cpl, cat=cat, sign=sign)
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
        entry = guest.pages.lookup(model.entry_page)
        if entry is not None:
            entry.perms.present = False
    guest.map_range(model.sp_init - DEFAULT_STACK_GUARD, model.sp_init + DEFAULT_STACK_GUARD)
    for mlo, mhi in model.mapped:
        guest.map_range(mlo, mhi)
    return guest


# -- trap configuration and interpreter --------------------------------


@dataclass
class TrapConfig:
    """How mode transitions are caught: "mbec" (EPT violations under the
    exec-denied profiles) or "legacy" (U/S-bit page faults).  Both report
    every switch, on hidden-hook pages too, so both yield the same trace:
    with two CPL values, the profile kept for the previous mode always
    denies execute in the new one."""

    transition_mode: str = "mbec"

    def __post_init__(self):
        if self.transition_mode not in TRANSITION_MODES:
            raise ValueError(
                f"unknown transition mode {_shown(self.transition_mode)}")


def run(guest: Guest, model: ProgramModel,
        trap_config: Optional[TrapConfig] = None) -> TraceLog:
    """Interpret the model against the guest and return the trace, which
    is the same under either TrapConfig."""
    log, _ = _run(guest, model)
    return log


def capture_entry_point(guest: Guest, model: ProgramModel):
    """Run with lazy entry capture; return (entry_address, trace prefix).

    Execute permission on the entry page is revoked up front; the first
    fetch on it surfaces as a Violation whose rip is the entry address.
    If the page is absent a page fault is injected first, then execute
    permission is restored and the run continues.
    """
    log, entry = _run(guest, model, capture_entry=True)
    if entry is None:
        raise SimulationError("model exhausted before executing the entry page")
    prefix = TraceLog(log.events[:entry + 1], log.module_range)
    return log.events[entry].address, prefix


def legacy_transition_detect(guest: Guest, model: ProgramModel) -> list[tuple[int, str]]:
    """Report mode transitions via the legacy U/S-bit page-fault path.

    Requires no MBEC support: while the page tables advertise the last
    known mode, a fetch in the other mode raises a page fault that the
    monitor intercepts and turns into a transition report.
    """
    return transitions(run(guest, model))


def transitions(log: TraceLog) -> list[tuple[int, str]]:
    """Extract (seq, mode) transition reports from a detection-mode trace."""
    columns = log.columns
    return [(seq, cpl) for seq, cpl, kind, instr in zip(
                columns.seq, columns.cpl, columns.kind, columns.instr)
            if kind == "execute" and instr.category == "other"]


@_collector_paused()  # the trace outlives the run
def _run(guest: Guest, model: ProgramModel, capture_entry: bool = False):
    """(The model's trace, the index of its entry event or None).

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
    entry_pending = capture_entry
    if entry_pending:
        # Step 1 of lazy capture: revoke execute on the entry page.
        page = guest.pages.lookup(model.entry_page)
        if page is not None:
            page.perms.exec_user = False
            page.perms.exec_kernel = False

    pages = guest.pages
    built_page = pages.get

    def demand_page(address: int, size: int, lazy_code: bool = False) -> None:
        first, last = address // PAGE_SIZE, (address + size - 1) // PAGE_SIZE
        if first == last:
            present = built_page(first)
            if present is not None and present.perms.present:
                return
        for page in range(first, last + 1):
            present = pages.lookup(page)
            if present is not None and present.perms.present:
                continue
            addr = page * PAGE_SIZE
            if not (lazy_code or guest.is_allocatable(addr)
                    or page == model.entry_page):
                raise SimulationError(
                    f"access to unmapped, un-allocatable address {_hex(address)}"
                )
            guest.inject_page_fault(addr)
            if entry_pending and page == model.entry_page:
                # Demand-zeroed entry page still has execute revoked.
                perms = pages[page].perms
                perms.exec_user = False
                perms.exec_kernel = False
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

    for (name, addr, size, value, callee, args, n_stack, amount, cpl, cat,
         sign, op_rip) in model.ops:
        if op_rip is not None:
            rip = op_rip
        # Instruction fetch: demand paging, entry capture, transition trap.
        fetch = guest.check_access(rip, "execute", guest.mode, rip)
        if fetch is not _ALLOWED:
            if isinstance(fetch, PageFault):
                demand_page(rip, 1, lazy_code=True)
                fetch = guest.check_access(rip, "execute", guest.mode, rip)
            if (isinstance(fetch, Violation) and entry_pending
                    and rip // PAGE_SIZE == model.entry_page):
                # Log the entry first, then restore the revoked permission.
                entry = len(rows)
                trap("execute", rip, 1, "other")
                perms = guest.pages[model.entry_page].perms
                perms.exec_user = True
                perms.exec_kernel = True
                entry_pending = False
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
            store(addr, size or 8, value or 0, cat or "int-move", sign or "n/a")
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
            stack_args = args[4:]
            if not stack_args and n_stack:
                stack_args = (0,) * n_stack
            for index, value in enumerate(stack_args):
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

    return TraceLog(EventColumns(_columns(rows)), module_range), entry

"""Event model and on-disk trace format.

A trace is a line-delimited stream of JSON values: a header object
carrying the virtual address range of the traced program's main module
and the names of the event columns, then one event per line as a JSON
array in COLUMNS order.  An event's `instr` is a shape object (category,
signedness, callee) where that shape first appears and the shape's
index, counted from 0 in order of definition, after that.  Its `val`
(the operand) and `args` (the four argument registers of a call) are
runtime state, so they sit in columns of their own.  Addresses and
values are 0x-prefixed hex strings so traces stay greppable.

In memory a TraceLog keeps its events as columns too, one list per
AccessEvent field, as column stores such as MonetDB/X100 do: the
reader extends them a chunk at a time, the guest's run transposes its
rows once, and the analyses scan the columns they need.  No event
object is kept.  log.events is the one view of the columns, which
builds an AccessEvent only when one is asked for.

Reading lives here, for traces and the guest's program models alike.
Every input, bytes, text or a stream, is split into lines by one rule,
str.splitlines (_iter_lines).  Both read through _read_rows, which
takes the header from the first non-blank line and the later lines a
chunk at a time: one json.loads call per chunk where it can tell that
each line holds one plain row, the reader's own column checks on the
chunk's rows, and the full checks on one row of each kind not seen
before.  A chunk that fails any of these is read again a line at a
time by the reader's per-row rules, which alone report errors.  It
keeps the cyclic collector paused while it builds, as the guest's run
does: what they build outlives them.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import is_, lt
from typing import (IO, Callable, Iterable, Iterator, NamedTuple, Optional,
                    Union)

CPL_VALUES = ("user", "kernel")
KIND_VALUES = ("read", "write", "execute")
OPERAND_SIZES = (1, 2, 4, 8, 16)
PAGE_SIZE = 4096

CATEGORIES = (
    "int-move",
    "float-move",
    "xmm-zero-store",
    "push",
    "call",
    "ret",
    "sub-sp",
    "syscall",
    "api-call",
    "page-fault",  # a page brought in by the capture, not the program
    "other",
)
SIGN_VALUES = ("signed", "unsigned", "n/a")

# Categories whose events carry a symbolic callee / register snapshot.
CALLEE_CATEGORIES = ("call", "syscall", "api-call")
ARG_CATEGORIES = ("call", "api-call")

_CPL_WIRE = {"user": "u", "kernel": "k"}
_CPL_UNWIRE = {v: k for k, v in _CPL_WIRE.items()}
_KIND_WIRE = {"read": "r", "write": "w", "execute": "x"}
_KIND_UNWIRE = {v: k for k, v in _KIND_WIRE.items()}


class TraceError(ValueError):
    """Base class for trace format errors."""


class TraceParseError(TraceError):
    """A line could not be parsed; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class TraceOrderError(TraceError):
    """Sequence numbers are not strictly increasing."""


@dataclass(frozen=True, slots=True)
class InstrDescriptor:
    """Modeled output of instruction decoding at a trapped access.

    Stands in for fetching and disassembling the 16 bytes at the faulting
    instruction pointer: the simulator fills these fields directly.  A
    descriptor is one instruction shape, as a trace writes it; what the
    instruction saw at run time, the operand an access moved and the
    argument registers of a call, is on the event.
    """

    category: str = "other"
    signedness: str = "n/a"
    callee_id: Optional[str] = None

    def __post_init__(self):
        _check(_SHAPE_FIELDS, self)
        if (self.callee_id is not None
                and self.category not in CALLEE_CATEGORIES):
            raise ValueError("callee_id not allowed for category "
                             f"{_shown(self.category)}")


def _check_operand(kind: str, size, category: str) -> None:
    """The operand rules of an access: AccessEvent's, and the guest's
    ModelOp's for the access a mov op logs, so that a run logs no access
    these rules reject."""
    if size not in OPERAND_SIZES:
        raise ValueError(f"bad operand size {_shown(size)}")
    if kind == "execute" and size != 1:
        raise ValueError("execute events have operand_size 1")
    if size == 16 and category != "xmm-zero-store":
        raise ValueError("operand_size 16 is reserved for xmm-zero-store")
    if category == "float-move" and size not in (4, 8):
        raise ValueError("float-move implies operand_size 4 or 8")


class _EventFields(NamedTuple):
    """AccessEvent's fields; AccessEvent adds the checks."""

    seq: int
    thread_id: int
    cpl: str
    kind: str
    address: int
    operand_size: int
    instr: InstrDescriptor
    rip: int
    value: Optional[int] = None
    register_args: Optional[tuple[int, int, int, int]] = None


class _Checked:
    """The constructor of a named tuple of checked fields, which comes
    before the named tuple among its bases: it runs the class's
    __post_init__ on the fields as given, and stores the list its field
    _TUPLE_AT may be given as as a tuple.  _make, _replace (and so
    copy.replace), pickle and copy all go through it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        made = super().__new__(cls, *args, **kwargs)
        made.__post_init__()
        at = cls._TUPLE_AT
        if type(made[at]) is not list:
            return made
        return tuple.__new__(cls, (*made[:at], tuple(made[at]),
                                   *made[at + 1:]))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AccessEvent(_Checked, _EventFields):
    """One intercepted memory access.

    `value` carries the decoded operand value where one is meaningful
    (stored/loaded data, pushed value, subtracted stack amount, or the
    modeled return value of an allocator call).  `register_args` holds
    RCX, RDX, R8 and R9 as a call or api-call event read them, and is
    None on every other event.

    An event is an immutable named tuple of these ten fields, so it
    equals the plain tuple of its fields, iterates over them, has length
    10 and orders as that tuple does.  Every public way of making one
    runs __post_init__'s checks (_Checked): each field's by its column
    of _EVENT_FIELDS, then the operand rules (_check_operand) and args
    only on a call or api-call.  A TraceLog keeps no events, only their
    columns; its `events` view builds each event it hands out with
    tuple.__new__(AccessEvent, fields), which checks nothing.  Those
    fields passed the checks on their way in: the trace reader checks
    its rows by column and runs the checks once per (cpl, kind, size,
    shape, args or not), all that the checks read but what the column
    checks hold for every row, on an event built from that key.  The
    guest's run checks no event: each field the checks read comes from
    a checked op or model, or is fixed by the op (_check_operand).
    """

    __slots__ = ()
    _TUPLE_AT = _EventFields._fields.index("register_args")

    def __post_init__(self):
        """The checks every public way of making an event runs."""
        _check(_EVENT_FIELDS, self)
        _check_operand(self.kind, self.operand_size, self.instr.category)
        if (self.register_args is not None
                and self.instr.category not in ARG_CATEGORIES):
            raise ValueError("register_args not allowed for category "
                             f"{_shown(self.instr.category)}")


def _events(rows: Iterable[Sequence]) -> Iterator[AccessEvent]:
    """The event of each row of ten fields, built unchecked: how every
    event that a TraceLog hands out is built from its columns."""
    return map(tuple.__new__, repeat(AccessEvent), rows)


def _columns(rows: Iterable[Sequence] = ()) -> _EventFields:
    """Ten new columns, which hold the fields of `rows`, transposed
    _CHUNK_ROWS rows at a time: a long run's rows would not stay in the
    cache over ten passes."""
    columns = _EventFields._make([] for _ in _EventFields._fields)
    rows = iter(rows)
    while block := list(islice(rows, _CHUNK_ROWS)):
        for column, values in zip(columns, zip(*block)):
            column.extend(values)
    return columns


@dataclass(frozen=True, slots=True)
class EventColumns(Sequence):
    """The events of a trace, kept as ten columns: `columns` is an
    _EventFields of one list per AccessEvent field, whose instr list
    holds one shared descriptor per instruction shape.

    It is a read-only sequence of AccessEvents.  Its length costs
    nothing, and indexing, slicing (to a tuple) and iteration build
    each event only when asked.  It compares and hashes as the tuple of
    its events, to which it is equal.
    """

    columns: _EventFields

    def __len__(self):
        return len(self.columns.seq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(_events(zip(*(column[index]
                                       for column in self.columns))))
        return next(_events([[column[index] for column in self.columns]]))

    def __iter__(self):
        return _events(zip(*self.columns))

    def __eq__(self, other):
        if isinstance(other, (EventColumns, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class TraceLog:
    """An ordered trace plus the main-module address range [lo, hi).

    It keeps its events as columns, and `events` is their one view, an
    EventColumns.  Given an EventColumns, it shares its columns, which
    nothing changes once a log holds them: how the trace reader and the
    guest's run hand theirs over.  Given anything else, it takes only
    AccessEvents whose seq rises strictly, as a trace holds them, and
    copies them into new columns; otherwise it raises a ValueError that
    names the first event that is not one (or a TraceOrderError that
    names the first whose seq does not rise).  Its module range is the
    header of a trace, which spells both bounds in 0x-hex (_RANGE).
    """

    events: Sequence[AccessEvent] = ()
    module_range: tuple[int, int] = (0, 0)

    def __post_init__(self):
        _RANGE.check("module_range", self.module_range)
        if not isinstance(self.events, EventColumns):
            events = tuple(self.events)
            for at, event in enumerate(events):
                if not isinstance(event, AccessEvent):
                    raise ValueError(
                        f"events[{at}] {_shown(event)} is not an AccessEvent")
                if at and event.seq <= events[at - 1].seq:
                    raise TraceOrderError(
                        f"events[{at}]: seq {event.seq} not greater than "
                        f"{events[at - 1].seq}")
            object.__setattr__(self, "events", EventColumns(_columns(events)))
        object.__setattr__(self, "module_range", tuple(self.module_range))

    @property
    def columns(self) -> _EventFields:
        """The ten columns of the events, one list per field."""
        return self.events.columns

    def __len__(self):
        return len(self.events)


@dataclass(frozen=True)
class AddressPattern:
    """Ordered relative offsets used as a behavioral memory signature,
    with one operand size per offset where `sizes` is given."""

    offsets: tuple[int, ...]
    base: int = 0
    sizes: Optional[tuple[int, ...]] = None

    def __post_init__(self, table=None):
        _check(_PATTERN_FIELDS if table is None else table, self)
        if self.sizes is not None and len(self.sizes) != len(self.offsets):
            raise ValueError("sizes and offsets differ in length")
        object.__setattr__(self, "offsets", tuple(self.offsets))
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(self.sizes))

    @classmethod
    def _read(cls, base=0, offsets=(), sizes=None) -> "AddressPattern":
        """The pattern of the values _decode read by _PATTERN_FIELDS.
        A tuple among them is one that _Ints.read took as ints, so the
        constructor's checks run on the other values and the lengths
        only: the ints are not scanned a second time."""
        pattern = cls.__new__(cls)
        pattern.__dict__.update(base=base, offsets=offsets, sizes=sizes)
        pattern.__post_init__([field for field in _PATTERN_FIELDS if type(
            getattr(pattern, field.name)) is not tuple])
        return pattern

    # Kept for bench/spans.py: its signature.lcmap.cells counter calls it.
    def __len__(self):
        return len(self.offsets)


def _hex(value: int) -> str:
    return f"0x{value:x}"


_SHOWN_CHARS = 72  # how much of an input value an error message repeats


def _shown(value) -> str:
    """repr(value) for an error message, cut to its first _SHOWN_CHARS
    characters plus a marker when longer.  Every message that repeats a
    value from an input file or argv goes through here, so a megabyte
    string or a list nested a thousand deep costs one short line."""
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def _parse_addr(value) -> int:
    if not isinstance(value, str) or not value.startswith("0x"):
        raise ValueError(
            f"address {_shown(value)} is not a 0x-prefixed hex string")
    return int(value, 16)


def _int_or_hex(value) -> int:
    """An int (never a bool or a float) or a 0x-prefixed hex string."""
    if _is_int(value):
        return value
    if isinstance(value, str) and value.startswith("0x"):
        return int(value, 16)
    raise ValueError(
        f"{_shown(value)} is neither an integer nor a 0x-prefixed hex string")


# -- field tables -------------------------------------------------------
#
# Each file format states its fields once, in a table of _Fields in the
# order a file spells them: the trace's ten columns (_EVENT_FIELDS) and
# shape objects (_SHAPE_FIELDS), its header's module range, the guest's
# model header and op keys, and the signature's keys.  A constructor
# checks its values against its table (_check), a writer spells them by
# it (_encode) and a reader takes them back by it (_decode).  A value
# kind holds each rule of a value once: its type test, where an int is
# never a bool or a float; its spelling; and its bounds, where a value a
# file spells in 0x-hex is never negative, since no reader takes "0x-1"
# back.  Only the rules between fields are written out by hand.


def _is_int(value) -> bool:
    """Whether `value` is an int and no bool."""
    return isinstance(value, int) and type(value) is not bool


class _Int:
    """Ints, spelled as JSON ints, or as 0x-hex strings where `write` is
    _hex, and then never negative, as natural ones are not either, and
    none above `most` where that is given.  A reader takes either
    spelling, or only 0x-hex where `read` is _parse_addr; `types` are
    the JSON types of those spellings."""

    def __init__(self, natural=False, write=int, read=_int_or_hex, most=None):
        self.natural = natural or write is _hex
        self.write, self.take, self.most = write, read, most
        self.types = {str} if read is _parse_addr else {int, str}

    def check(self, label, value):
        if type(value) is not int and not _is_int(value):
            raise ValueError(f"{label} {_shown(value)} is not an integer")
        if self.natural and value < 0:
            raise ValueError(f"{label} {_shown(value)} is negative")
        if self.most is not None and value > self.most:
            raise ValueError(f"{label} {_shown(value)} is above {self.most}")

    def read(self, key, spelled):
        return self.take(spelled)


class _Ints:
    """A tuple of ints, `length` of them where given, spelled as a JSON
    list of ints; a reader also takes 0x-hex strings in it.  An error
    names the whole value, which must be `wants`, or its least int by
    `each` where that names ints that are never negative."""

    types = {list}

    def __init__(self, length=None, wants="a list of integers", each=None):
        self.length, self.wants, self.each = length, wants, each

    def check(self, label, value):
        if not isinstance(value, (list, tuple)) or not (
                set(map(type, value)) <= {int} or all(map(_is_int, value))):
            raise ValueError(f"{label} {_shown(value)} must be {self.wants}")
        if self.length is not None and len(value) != self.length:
            raise ValueError(
                f"{label} must hold exactly {self.length} values")
        if self.each and min(value, default=0) < 0:
            raise ValueError(f"{self.each} {_shown(min(value))} is negative")

    def write(self, value):
        return list(value)

    def read(self, key, spelled):
        if not isinstance(spelled, list):
            raise ValueError(f"{key} must be a list")
        if set(map(type, spelled)) <= {int}:
            return tuple(spelled)
        return tuple(map(_int_or_hex, spelled))


class _Is:
    """Values that pass `test`, spelled as they are.  `error` formats the
    label and the value of one that fails; `types` are their JSON
    types."""

    def __init__(self, test, error, types=(str,)):
        self.test, self.error, self.types = test, error, set(types)

    def check(self, label, value):
        if not self.test(value):
            raise ValueError(self.error.format(label, _shown(value)))

    def write(self, value):
        return value

    def read(self, key, spelled):
        return spelled


def _of(cls) -> Callable[[object], bool]:
    """The type test of `cls`."""
    return lambda value: isinstance(value, cls)


def _enum(values, error) -> _Is:
    """The kind of one of `values`, whose error reads "<error> <value>"."""
    return _Is(values.__contains__, error + " {1}")


class _Bounds:
    """A (lo, hi) pair of `bound` ints, spelled {"lo": lo, "hi": hi}; or,
    where `many`, a list of such pairs, each spelled [lo, hi].  An error
    names each int a "bound" of the field."""

    def __init__(self, bound: _Int, many=False):
        self.bound, self.many = bound, many

    def check(self, label, value):
        pairs = value if self.many else [value]
        if not isinstance(pairs, (list, tuple)):
            raise ValueError(f"{label} {_shown(value)} is not a list")
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(
                    f"{label} {_shown(pair)} is not a (lo, hi) pair")
            for bound in pair:
                self.bound.check(f"{label} bound", bound)

    def write(self, value):
        spell = self.bound.write
        if self.many:
            return [[spell(lo), spell(hi)] for lo, hi in value]
        return {"lo": spell(value[0]), "hi": spell(value[1])}

    def read(self, key, spelled):
        take = self.bound.take
        if self.many:
            return [(take(lo), take(hi)) for lo, hi in spelled]
        return take(spelled["lo"]), take(spelled["hi"])


_INT, _NAT = _Int(), _Int(natural=True)
_HEX = _Int(write=_hex)  # a reader also takes a JSON int
_ADDR = _Int(write=_hex, read=_parse_addr)
_STR = _Is(_of(str), "{} {} is not a string")
_BOOL = _Is(_of(bool), "{} must be true or false, not {}", types=(bool,))
_CPL = _enum(CPL_VALUES, "bad cpl")
_CATEGORY = _enum(CATEGORIES, "unknown instruction category")
_SIGN = _enum(SIGN_VALUES, "unknown signedness")
_RANGE = _Bounds(_ADDR)


class _Field:
    """One field of a file format: its name in memory, its kind, and its
    key in a file, the name unless given.  An optional field may hold
    None.  A writer leaves out a value equal to `omit`, and a reader
    reads null as it."""

    __slots__ = ("name", "kind", "key", "optional", "omit", "check")

    def __init__(self, name, kind, key=None, optional=False, omit=None):
        self.name, self.kind, self.key = name, kind, key or name
        self.optional, self.omit, self.check = optional, omit, kind.check


def _check(table: Sequence[_Field], made) -> None:
    """Raise the ValueError of the first field of `made` that its kind
    rejects, in table order."""
    for field in table:
        value = getattr(made, field.name)
        if value is not None or not field.optional:
            field.check(field.name, value)


def _encode(table: Sequence[_Field], made) -> dict:
    """The record that spells the fields of `made`, key by key in table
    order, less each value equal to its field's `omit`."""
    return {field.key: field.kind.write(value) for field in table
            if (value := getattr(made, field.name)) != field.omit}


def _decode(table: Sequence[_Field], record: dict) -> dict:
    """The values (by name) of the keys `record` holds, each read back
    by its field's kind, and null as the value a writer leaves out: what
    a constructor then checks.  A key it lacks is left out."""
    return {field.name: field.omit if record[field.key] is None
            else field.kind.read(field.key, record[field.key])
            for field in table if field.key in record}


# A trace's shape object: {"cat": ..., "sign": ..., "callee": ...}.
_SHAPE_FIELDS = (_Field("category", _CATEGORY, "cat"),
                 _Field("signedness", _SIGN, "sign"),
                 _Field("callee_id", _STR, "callee", optional=True))


# A trace's ten columns, in the order a row spells them.  An int a
# trace spells as a JSON int may be negative.  A row spells cpl and kind
# by their codes in _CPL_WIRE and _KIND_WIRE, and instr as a shape
# (_SHAPE_FIELDS) or a shape's index; the trace reader takes seq, tid
# and size only as JSON ints, and addr, rip and val only as 0x-hex.
_EVENT_FIELDS = (
    _Field("seq", _INT),
    _Field("thread_id", _INT, "tid"),
    _Field("cpl", _CPL),
    _Field("kind", _enum(KIND_VALUES, "bad access kind")),
    _Field("address", _ADDR, "addr"),
    _Field("operand_size", _INT, "size"),
    _Field("rip", _ADDR),
    _Field("instr", _Is(_of(InstrDescriptor),
                        "{} {} is not an InstrDescriptor")),
    _Field("value", _ADDR, "val", optional=True),
    _Field("register_args", _Ints(length=4, wants="integers"), "args",
           optional=True),
)
COLUMNS = tuple(field.key for field in _EVENT_FIELDS)


# A signature file's pattern keys; signature.py adds its tau_default.
_PATTERN_FIELDS = (_Field("base", _HEX), _Field("offsets", _Ints()),
                   _Field("sizes", _Ints(), optional=True))


def _record_to_instr(raw: dict) -> InstrDescriptor:
    """The descriptor of a shape object."""
    if "cat" not in raw or "sign" not in raw:
        raise ValueError("a shape object needs cat and sign")
    for key in ("val", "args"):  # an event's own columns
        if key in raw:
            raise ValueError(f"a shape object holds no {key}")
    return InstrDescriptor(**_decode(_SHAPE_FIELDS, raw))


def _parse_args(raw) -> tuple:
    """The register arguments of an `args` cell that is not null;
    AccessEvent checks their count and the event's category."""
    if not isinstance(raw, list):
        raise ValueError(f"args must be a list, not {_shown(raw)}")
    return tuple(map(_int_or_hex, raw))


def _iter_lines(stream) -> Iterator[str]:
    """The lines of bytes, of text, or of each line a stream yields, as
    str.splitlines splits them: one rule for every input.  A stream's
    empty line, as a list of lines may hold, stays one line."""
    if isinstance(stream, (bytes, str)):
        stream = [stream]
    return chain.from_iterable(
        (line.decode("utf-8") if isinstance(line, bytes) else line
         ).splitlines() or [""] for line in stream)


def iter_json_lines(
    stream: Union[bytes, str, IO, Iterable[str]],
    error: Callable[[int, str], Exception],
    start: int = 1,
) -> Iterator[tuple[int, object]]:
    """Yield (lineno, record) for each non-blank line of a JSON-lines
    stream, numbering lines from `start` with blank ones counted.

    A line of whitespace alone is blank.  Any other line is decoded with
    json.loads, and one that is not exactly one JSON value raises
    `error(lineno, "invalid JSON: " + reason)`, with the reason
    json.loads gives, or "nested too deeply" where the decoder ran out
    of recursion depth.
    """
    for lineno, line in enumerate(_iter_lines(stream), start):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(lineno, f"invalid JSON: {exc.msg}") from exc
        except RecursionError:
            raise error(lineno, "invalid JSON: nested too deeply") from None
        yield lineno, record


def _parse_header(lineno: int, record) -> tuple[int, int]:
    """The module range of a header record, whose columns must be
    COLUMNS."""
    if not isinstance(record, dict) or "module_range" not in record:
        raise TraceParseError(lineno, "first line must carry module_range")
    try:
        module_range = _RANGE.read("module_range", record["module_range"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceParseError(lineno, f"bad module_range: {exc}") from exc
    if "columns" not in record:
        raise TraceParseError(
            lineno, "header has no columns (a trace of an older format?)")
    if record["columns"] != list(COLUMNS):
        raise TraceParseError(
            lineno, f"columns must be {json.dumps(COLUMNS)}, "
            f"not {_shown(record['columns'])}")
    return module_range


def parse_trace(stream: Union[bytes, str, IO, Iterable[str]]) -> TraceLog:
    """Parse a line-delimited trace stream into a TraceLog.

    The first non-blank line is the header, carrying module_range and
    the column names; every later line is one event row.  A stream with
    no header parses to an empty log.  Raises TraceParseError (naming
    the line) on malformed input and TraceOrderError when seq is not
    strictly increasing.

    Bytes, text and streams alike are read through _read_rows: about a
    thousand rows per json.loads call, checked column by column
    (_take_events), with the cyclic collector paused while it builds
    the log's columns, which each chunk extends.  A chunk those checks
    decline is read again row by row (_row_to_event), which alone builds
    the errors, each row stored as it is built.  Both ways share one
    shape table and give the same columns, and both check a row's seq
    against the last stored row's: the seq column's last value.
    Each shape object is checked and built into a descriptor once,
    which every row citing the shape shares; a row's `val` and `args`
    become its event's `value` and `register_args`.
    """
    columns = _columns()
    shapes: list = []  # the shape table, which both ways extend
    module_range = _read_rows(
        stream, TraceParseError, _parse_header, list,
        partial(_take_events, columns, shapes),
        partial(_row_to_event, shapes, columns.seq),
        # One row's ten fields, each onto its column (append gives None).
        lambda event: any(map(list.append, columns, event)))
    # Copies fit their lists to size: extending a chunk at a time leaves
    # up to an eighth of a long column spare.
    return TraceLog(EventColumns(columns._make(map(list, columns))),
                    module_range or (0, 0))


def _row_to_event(shapes: list, seqs: list, lineno: int,
                  row) -> AccessEvent:
    """The event of the row on line `lineno`, by the per-row rules: how
    parse_trace reads each chunk that _take_events declines, and the
    only reading that raises parse errors.  A shape object joins
    `shapes`; the row's seq must be greater than the last of `seqs`,
    the seq column of the rows stored before it."""
    try:
        if type(row) is not list or len(row) != len(COLUMNS):
            raise ValueError(
                f"an event row is a list of {len(COLUMNS)} values")
        seq, tid, cpl, kind, addr, size, rip, shape, val, args = row
        if type(shape) is int:
            if not 0 <= shape < len(shapes):
                raise ValueError(
                    f"instr {shape} names no shape defined before it")
            instr = shapes[shape]
        elif type(shape) is dict:
            instr = _record_to_instr(shape)
            shapes.append(instr)
        else:
            raise ValueError(
                "instr must be a shape object or a shape's index")
        # val and args before addr and rip: a row bad in several
        # names its val, then its args.
        value = None if val is None else _parse_addr(val)
        if args is not None:
            args = _parse_args(args)
        event = AccessEvent(seq, tid, _CPL_UNWIRE.get(cpl, cpl),
                            _KIND_UNWIRE.get(kind, kind), _parse_addr(addr),
                            size, instr, _parse_addr(rip), value, args)
    except (TypeError, ValueError) as exc:
        raise TraceParseError(lineno, str(exc)) from exc
    if seqs and seq <= seqs[-1]:
        raise TraceOrderError(
            f"line {lineno}: seq {seq} not greater than {seqs[-1]}")
    return event


_CHUNK_ROWS = 1024  # lines per json.loads call in _read_rows
_SHAPE_KEYS = frozenset(field.key for field in _SHAPE_FIELDS)
_BRACKETS = {list: "[]", dict: "{}"}


def _decode_chunk(chunk: list[str], row_type: type) -> Optional[list]:
    """The rows the lines of `chunk` hold, or None unless every line
    starts and ends with the brackets of `row_type` (a list or an
    object) and the lines, joined into one JSON array by ",\n", decode
    to one value of that type per line.

    A reader that keeps to these guards reads each line as exactly the
    one row that json.loads reads from the line alone, if it takes no
    row that holds, at any depth, an array with two values of
    `row_type` side by side:
    - a line may end inside a string: str.splitlines also ends a line
      at a U+0085, U+2028 or U+2029 that JSON allows raw in a string.
      That string is then left open at the end of its chunk, or the
      join puts a raw "\n" inside it; both fail in json.loads, so every
      join lies between values;
    - each line starts with the opening bracket and ends with the
      closing one, so every join reads close ",\n" open, and with as
      many of these as joins, no line holds one of its own.  So a join
      closes a value and opens one in the same container, and that
      container is an array, since in an object a "," is followed by a
      key.  No row holds such an array, so it is the chunk's own, and
      every join separates two rows;
    - with as many rows as lines, no line holds a second row."""
    open_, close = _BRACKETS[row_type]
    body = ",\n".join(chunk)
    if (body[:1] != open_ or body[-1:] != close
            or body.count(close + ",\n" + open_) != len(chunk) - 1):
        return None
    rows = json.loads("[" + body + "]")
    if len(rows) == len(chunk) and set(map(type, rows)) == {row_type}:
        return rows
    return None


@contextmanager
def _collector_paused():
    """Pause the cyclic collector for the block: what a reader or a run
    builds outlives it, so a collection meanwhile would only trace the
    new objects and promote them to an older generation.  It is left
    as it was found, enabled or not, also when the block raises (a
    switch that another thread makes meanwhile may be undone)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def _read_rows(stream: Union[bytes, str, IO, Iterable[str]],
               error: Callable[[int, str], Exception], head: Callable,
               row_type: type, take: Callable, build: Callable,
               store: Callable) -> object:
    """The header of a JSON-lines stream, or None where it has none, with
    what the lines after it hold handed to `take` or `store`: the one
    reader of parse_trace and the guest's parse_model.

    head(lineno, record) gives the header of the first non-blank line
    (iter_json_lines, which raises error(lineno, message) for a line
    that is not JSON).  The later lines go _CHUNK_ROWS at a time to
    _decode_chunk, as rows of `row_type`, and then to take(rows,
    checked), the reader's column checks.  It stores what it made of
    the rows and gives True, or gives None to decline them, and runs
    __post_init__'s checks once for each key of the chunk that
    `checked` does not hold yet, then adds them: a key is what the
    checks read but the column checks do not vouch for, and the row
    checked is built from the key alone.  A chunk that either declines
    (also by a TypeError, ValueError or RecursionError) is read again a
    line at a time with build(lineno, record), which alone raises
    errors, and what it builds goes to store(made) one at a time, so
    that each build sees the ones before it stored; an odd line costs
    the line-by-line reading of its own chunk only.
    `take` changes what it shares with `build` and `store` only when it
    takes a chunk.  The cyclic collector stays paused throughout
    (_collector_paused).
    """
    lines = _iter_lines(stream)
    header, lineno = None, 0
    for lineno, record in iter_json_lines(lines, error):
        header = head(lineno, record)
        break
    checked: set = set()
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        try:
            rows = _decode_chunk(chunk, row_type)
            taken = rows is not None and take(rows, checked)
        except (TypeError, ValueError, RecursionError):
            taken = False
        if not taken:
            for line in iter_json_lines(chunk, error, lineno + 1):
                store(build(*line))
        lineno += len(chunk)
    return header


def _hex_prefixed(column) -> bool:
    """Whether every string in `column` starts with "0x", given that each
    parses with int(s, 16), as the column checks check later: then none
    holds a ",", so ",0x" occurs in "," + ",".join(column) once per
    string that starts with "0x" and nowhere else."""
    return ("," + ",".join(column)).count(",0x") == len(column)


def _take_events(columns: _EventFields, shapes: list, rows: list,
                 checked: set) -> Optional[bool]:
    """Add the events of a chunk's rows to `columns`, checked column by
    column with _row_to_event's rules, and give True; or give None (or
    raise a TypeError or ValueError) for a chunk it does not take,
    which _read_rows then reads row by row.

    It takes a chunk only if every shape object holds only cat, sign
    and callee, and every args cell is null or a list of four exact
    ints.  Then no row holds two lists side by side in an array: a
    row's only list column is args, its last, since the checks below
    reject a list in any other (an int, a string, a shape or null); a
    shape holds strings only, and an args list ints only.  So, as
    _decode_chunk argues, each line is exactly one row, decoded from
    the text the row reader decodes.
    The rules: exact ints, strictly increasing seq (from the last stored
    row's on, the last of the seq column), shape indices naming an
    earlier shape, 0x-hex addr and rip, a val that is null or 0x-hex,
    and AccessEvent's checks once per distinct (cpl, kind, size, shape,
    args or not), on an event built by its constructor from that key
    with seq, tid, addr and rip 0, val null and args (0, 0, 0, 0) where
    the key has them: every other field they read (_EVENT_FIELDS) passes
    on every row once its column passes here, exact-int seq and tid,
    args of four exact ints, and addr, rip and val, which no hex string
    that passes here makes negative.  No other event is built: the
    chunk's columns extend `columns`.  Only the rows that carry args
    convert them; args spelled in hex are left to the row reader.  A
    chunk taken adds its shapes to `shapes`.
    """
    if set(map(len, rows)) != {len(COLUMNS)}:
        return None
    (seqs, tids, cpls, kinds, addrs, sizes, rips, shape_col, vals,
     args_col) = zip(*rows)
    carried = [args for args in args_col if args is not None]
    seq_run = (*columns.seq[-1:], *seqs)
    shape_types = list(map(type, shape_col))
    # filter(None, ...) drops each null val, and with it any other
    # false one (0, "", [], ...), on which int(val, 16) raises below.
    if (set(map(type, seqs + tids + sizes)) != {int}
            or not set(shape_types) <= {int, dict}
            or not all(map(lt, seq_run, seq_run[1:]))
            or not _hex_prefixed(addrs) or not _hex_prefixed(rips)
            or not _hex_prefixed(list(filter(None, vals)))
            or not set(map(type, carried)) <= {list}
            or not set(map(len, carried)) <= {4}
            or not set(map(type, chain.from_iterable(carried))) <= {int}):
        return None
    # Shape objects are few: build each and put its index in its
    # place.  A row may name only the shapes defined up to it.
    table = list(shapes)
    shape_col = list(shape_col)
    seg = 0
    for at in compress(count(), map(is_, shape_types, repeat(dict))):
        if (max(shape_col[seg:at], default=-1) >= len(table)
                or not shape_col[at].keys() <= _SHAPE_KEYS):
            return None
        table.append(_record_to_instr(shape_col[at]))
        shape_col[at] = len(table) - 1
        seg = at
    if max(shape_col[seg:], default=-1) >= len(table) or min(shape_col) < 0:
        return None
    cpls = list(map(_CPL_UNWIRE.get, cpls, cpls))
    kinds = list(map(_KIND_UNWIRE.get, kinds, kinds))
    chunk = (seqs, tids, cpls, kinds, list(map(int, addrs, repeat(16))),
             sizes, list(map(table.__getitem__, shape_col)),
             list(map(int, rips, repeat(16))),
             [val if val is None else int(val, 16) for val in vals],
             [args if args is None else tuple(args) for args in args_col])
    new = set(zip(cpls, kinds, sizes, shape_col,
                  map(is_, args_col, repeat(None)))) - checked
    for cpl, kind, size, shape, bare in new:
        AccessEvent(0, 0, cpl, kind, 0, size, table[shape], 0, None,
                    None if bare else (0, 0, 0, 0))
    checked.update(new)
    for column, values in zip(columns, chunk):
        column.extend(values)
    shapes[:] = table
    return True


def serialize_trace(log: TraceLog) -> bytes:
    """Serialize a TraceLog; parse_trace(serialize_trace(log)) == log.

    Each event row is the bytes `json.dumps` gives for it, written by
    hand: `json.dumps` runs once per distinct instruction shape (cat,
    sign, callee), at the shape's first use, and later rows name the
    shape by its index.  Every int of a row is an int, which an f-string
    spells as `json.dumps` does (_EVENT_FIELDS).
    """
    if not log.events and log.module_range == (0, 0):
        return b""
    lines = [json.dumps({"module_range": _RANGE.write(log.module_range),
                         "columns": list(COLUMNS)})]
    dumps, cpl_wire, kind_wire = json.dumps, _CPL_WIRE, _KIND_WIRE
    shapes: dict = {}  # (cat, sign, callee) -> the shape's index
    # The rows of the columns are plain tuples, which unpack fastest.
    for seq, tid, cpl, kind, address, size, instr, rip, value, args in zip(
            *log.columns):
        key = (instr.category, instr.signedness, instr.callee_id)
        shape = shapes.get(key)
        if shape is None:
            shapes[key] = len(shapes)
            shape = dumps(_encode(_SHAPE_FIELDS, instr))
        val = "null" if value is None else f'"0x{value:x}"'
        args = "null" if args is None else "[{}, {}, {}, {}]".format(*args)
        lines.append(
            f'[{seq}, {tid}, "{cpl_wire[cpl]}", '
            f'"{kind_wire[kind]}", "0x{address:x}", {size}, '
            f'"0x{rip:x}", {shape}, {val}, {args}]'
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def split_by_thread(log: TraceLog) -> dict[int, list[AccessEvent]]:
    """Partition events by thread_id, preserving per-thread seq order."""
    threads: dict[int, list[AccessEvent]] = {}
    for event in log.events:
        threads.setdefault(event.thread_id, []).append(event)
    return threads


def _program_accesses(log: TraceLog,
                      among: Optional[list[int]] = None) -> list[int]:
    """The indices of the reads and writes the traced program issued, in
    trace order, of all events or of those `among` the given indices:
    those from the main module (from anywhere when the module range is
    empty), less the page faults the capture injected."""
    lo, hi = log.module_range
    if hi <= lo:
        lo, hi = float("-inf"), float("inf")
    columns = log.columns
    picked = [column if among is None else [column[at] for at in among]
              for column in (columns.kind, columns.instr, columns.rip)]
    # An empty `among` picks empty columns, so count() there yields none.
    return [at for at, kind, instr, rip in zip(among or count(), *picked)
            if kind in ("read", "write") and instr.category != "page-fault"
            and lo <= rip < hi]


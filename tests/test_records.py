"""The contract of memtrace's records, each a named tuple or a slotted
class: construction by position and by keyword with the same defaults,
equality and hashing, no assignment (but to a FieldRecord), pickle,
copy and deepcopy through the constructor, and every check on every way
of making a record.  Also the start-up gate: importing the CLI loads no
dataclasses and no inspect."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import memtrace
from memtrace.guest import ModelOp, ProgramModel
from memtrace.recon import (AllocationRecord, CallRecord, FieldRecord,
                            LayoutRecord, RuleHit)
from memtrace.signature import DiffReport, LcmapResult
from memtrace.trace import (AccessEvent, AddressPattern, EventColumns,
                            InstrDescriptor, TraceLog, TraceOrderError,
                            _columns)

SRC = str(Path(memtrace.__file__).resolve().parent.parent)


def _event(seq):
    return AccessEvent(seq, 0, "user", "read", 0x1000, 8,
                       InstrDescriptor("int-move"), 0x401000)


# Each record: its class, the fields of one record by name, and a change
# of one field that its checks reject (None where it has no checks).
RECORDS = {
    "InstrDescriptor": (InstrDescriptor, dict(
        category="api-call", signedness="signed", callee_id="malloc"),
        dict(category="bogus")),
    "EventColumns": (EventColumns, dict(
        columns=_columns([_event(1), _event(2)])), None),
    "TraceLog": (TraceLog, dict(
        events=(_event(1), _event(2)), module_range=(0x401000, 0x402000)),
        dict(events=(_event(2), _event(1)))),
    "AddressPattern": (AddressPattern, dict(
        offsets=(0, 8, 16), base=0x9000, sizes=(8, 4, 1)),
        dict(sizes=(8, 4))),
    "AllocationRecord": (AllocationRecord, dict(
        base=0x9000, size=0x40, source="heap-hook", site_rip=0x401004),
        None),
    "CallRecord": (CallRecord, dict(
        callee_id="malloc", reg_params=(0x40, 0, 0, 0), stack_params=(),
        param_count=1, return_address=0x401008, pointer_flags=(False,) * 4,
        seq=3, thread_id=0, rip=0x401004), None),
    "FieldRecord": (FieldRecord, dict(
        offset=8, size=4, category="int", evidence_count=2,
        notes=["a note"]), None),
    "LayoutRecord": (LayoutRecord, dict(
        base=0x9000, total_size=16,
        fields=[FieldRecord(0, 16, "char-array")]), None),
    "RuleHit": (RuleHit, dict(
        rule="Window Hooking", thread_id=0, first_seq=1, last_seq=9), None),
    "LcmapResult": (LcmapResult, dict(
        pattern=(0, 8), length=2, end_index=1, tau=100, end_index_prime=1,
        ratio=1.0), None),
    "DiffReport": (DiffReport, dict(
        matched=[((0, 2), (0, 2))], unmatched=[((2, 3), (2, 4))]), None),
    "ProgramModel": (ProgramModel, dict(
        ops=[ModelOp("nop")], entry_page=0x401, sp_init=0x7ff000, tid=1,
        cpl="kernel", entry_present=False, mapped=[(0x3000, 0x4000)],
        module_range=(0x401000, 0x402000)),
        dict(ops=[("nop",) + (None,) * 11])),
}
CHECKED = [name for name, (_, _, bad) in RECORDS.items() if bad]
CLONES = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
if hasattr(copy, "replace"):  # Python 3.13 on
    CLONES["copy.replace"] = copy.replace


def _make(name):
    cls, fields, _ = RECORDS[name]
    return cls(**copy.deepcopy(fields))


def _unchecked(cls, values):
    """A record of `values` made without its class's constructor, so
    without its checks."""
    if issubclass(cls, tuple):
        return tuple.__new__(cls, values)
    made = object.__new__(cls)
    made._set(*values)
    return made


def _values(record) -> tuple:
    """The fields of a record, in order."""
    return tuple(record) if isinstance(record, tuple) else record._values()


def _hashable(record) -> bool:
    try:
        hash(record)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", RECORDS)
def test_made_by_position_and_keyword_alike(name):
    cls, fields, _ = RECORDS[name]
    by_keyword = _make(name)
    assert type(by_keyword) is cls
    assert cls(*copy.deepcopy(list(fields.values()))) == by_keyword
    assert _values(by_keyword) == tuple(map(by_keyword.__getattribute__,
                                            fields))


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_alike(name):
    first, second = _make(name), _make(name)
    assert first == second and not first != second
    assert first is not second
    if name == "FieldRecord":  # changed in place, so never hashed
        assert not _hashable(first)
    elif _hashable(first):
        assert hash(first) == hash(second)
    assert first._replace() == first and first._replace() is not first
    # A named tuple equals the tuple of its fields; a slotted record
    # equals only a record of its own class.
    assert (first == _values(first)) is isinstance(first, tuple)


@pytest.mark.parametrize("name", RECORDS)
def test_no_assignment_but_to_a_field_record(name):
    """Only a FieldRecord's fields may be set; no record takes a new
    attribute."""
    record = _make(name)
    for key, value in RECORDS[name][1].items():
        if name == "FieldRecord":
            setattr(record, key, value)
            continue
        with pytest.raises(AttributeError):
            setattr(record, key, value)
        with pytest.raises(AttributeError):
            delattr(record, key)
        with pytest.raises(AttributeError):
            record.unknown = value
    assert record == _make(name)


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
@pytest.mark.parametrize("name", RECORDS)
def test_round_trips(name, clone):
    record = _make(name)
    got = clone(record)
    assert got == record
    assert type(got) is type(record)
    assert list(map(type, _values(got))) == list(map(type, _values(record)))


@pytest.mark.parametrize("name", CHECKED)
def test_bad_field_raises_every_way(name):
    """Construction, _replace and unpickling all run the checks: a record
    built without them does not survive a pickle."""
    cls, fields, bad = RECORDS[name]
    error = TraceOrderError if name == "TraceLog" else ValueError
    wrong = {**copy.deepcopy(fields), **bad}
    with pytest.raises(error):
        cls(**wrong)
    with pytest.raises(error):
        cls(*wrong.values())
    with pytest.raises(error):
        _make(name)._replace(**bad)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(_unchecked(cls, wrong.values())))


def test_defaults():
    """Each default field value; a list default is a new list each time."""
    assert InstrDescriptor() == InstrDescriptor("other", "n/a", None)
    assert AllocationRecord(1, 2, "call-param").site_rip == 0
    fields = FieldRecord(0, 1, "char"), FieldRecord(0, 1, "char")
    assert fields[0].evidence_count == 0 and fields[0].notes == []
    assert fields[0].notes is not fields[1].notes
    log = TraceLog()
    assert len(log.events) == 0 and log.module_range == (0, 0)
    assert AddressPattern((1, 2)) == AddressPattern(
        offsets=(1, 2), base=0, sizes=None)
    model = ProgramModel([], 1, 2)
    assert (model.tid, model.cpl, model.entry_present, model.mapped,
            model.module_range) == (0, "user", True, [], None)
    assert model.mapped is not ProgramModel([], 1, 2).mapped
    reports = DiffReport(), DiffReport()
    assert reports[0] == ([], []) and reports[0].matched is not (
        reports[1].matched)


def test_cli_start_up_loads_no_dataclasses_or_inspect():
    """Importing the CLI and building its parser, the start-up of every
    command, loads neither dataclasses nor inspect: the record classes
    cost no code generation."""
    code = ("import sys; before = set(sys.modules); import memtrace.cli; "
            "memtrace.cli.build_parser(); "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True).stdout.split()
    assert "memtrace.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)

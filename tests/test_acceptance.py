"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

from memtrace.guest import (
    Guest,
    ModelOp,
    build_guest,
    capture_entry_point,
    transitions,
)
from memtrace.recon import (
    AMBIGUITY_NOTE,
    EVASIVE_SEQUENCES,
    find_allocations,
    find_stack_buffers,
    flag_call_sequences,
    reconstruct_layout,
    recover_calls,
)
from memtrace.signature import (
    diff_modified,
    extract_pattern,
    lcmap,
    similarity,
)

from helpers import (
    MODULE_PAGE,
    brute_lcmap,
    make_model,
    random_pattern_pair,
    reference_transitions,
    run_model,
)

PAGE_SIZE = 4096
ALLOC_BASE = 0x9000


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {description}", flush=True)


def test_criterion_1_lcmap_oracle_equivalence():
    with criterion(1, "LCMAP matches brute-force oracle on 1050 pairs"):
        rng = random.Random(2024)
        started = time.perf_counter()
        for trial in range(1050):
            tau = (0, 4, 100)[trial % 3]
            p, q = random_pattern_pair(rng, max_len=32, max_offset=1 << 16)
            got = lcmap(p, q, tau)
            assert (got.length, got.end_index, got.end_index_prime) \
                == brute_lcmap(p, q, tau)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_tau_behavior():
    with criterion(2, "reflexivity, tau-monotonicity, tau=0 LCS, default 100"):
        rng = random.Random(77)
        for _ in range(300):
            p, q = random_pattern_pair(rng, max_len=24, max_offset=1 << 12)
            assert lcmap(p, p, 0).length == len(p)
            lengths = [lcmap(p, q, tau).length for tau in (0, 4, 100, 1000)]
            assert lengths == sorted(lengths)
            subs = {tuple(p[i:j]) for i in range(len(p))
                    for j in range(i + 1, len(p) + 1)}
            classic = max(
                (j - i for i in range(len(q))
                 for j in range(i + 1, len(q) + 1)
                 if tuple(q[i:j]) in subs),
                default=0,
            )
            assert lcmap(p, q, 0).length == classic
            assert lcmap(p, q).length == lcmap(p, q, 100).length
        assert lcmap([0], [100]).length == 1
        assert lcmap([0], [101]).length == 0


def test_criterion_3_ept_truth_table():
    with criterion(3, "exhaustive EPT permission truth table"):
        started = time.perf_counter()

        def expected(profile, kind, cpl, hook, present):
            if not present:
                return "page-fault"
            if hook:
                if kind == "execute":
                    return "allowed"
                if kind == "read":
                    return "violation"
            if profile == "user-exec-denied":
                return ("violation" if (kind, cpl) == ("execute", "user")
                        else "allowed")
            if profile == "kernel-exec-denied":
                return ("violation" if (kind, cpl) == ("execute", "kernel")
                        else "allowed")
            if profile == "execute-only":
                return "allowed" if kind == "execute" else "violation"
            return "allowed"

        combos = itertools.product(
            ("normal", "user-exec-denied", "kernel-exec-denied",
             "execute-only"),
            ("read", "write", "execute"),
            ("user", "kernel"),
            (False, True),
            (True, False),
        )
        count = 0
        for profile, kind, cpl, hook, present in combos:
            guest = Guest()
            guest.map_range(0x3000, 0x4000)
            if hook:
                guest.install_hidden_hook(0x3000, b"\xcc")
            if not present:
                guest.pages[3] = None
            guest.switch_profile(profile)
            out = guest.check_access(0x3000, kind, cpl)
            assert out == expected(profile, kind, cpl, hook, present), \
                (profile, kind, cpl, hook, present)
            count += 1
        assert count == 96
        assert time.perf_counter() - started < 1.0


FIELD_KINDS = [
    ("char", 1, "int-move", "signed"),
    ("unsigned char", 1, "int-move", "unsigned"),
    ("short", 2, "int-move", "signed"),
    ("unsigned short", 2, "int-move", "unsigned"),
    ("int", 4, "int-move", "signed"),
    ("unsigned int", 4, "int-move", "unsigned"),
    ("float", 4, "float-move", "n/a"),
    ("long long", 8, "int-move", "signed"),
    ("unsigned long long", 8, "int-move", "unsigned"),
    ("double", 8, "float-move", "n/a"),
    ("pointer", 8, "int-move", "n/a"),
]


def random_layout(rng):
    fields = []
    cursor = 0
    last_size = None
    for _ in range(rng.randrange(1, 13)):
        name, size, cat, sign = rng.choice(FIELD_KINDS)
        if size == 1 and last_size == 1:
            name, size, cat, sign = ("int", 4, "int-move", "signed")
        fields.append((cursor, size, name, cat, sign))
        gap = rng.choice([0, 0, 0, 2, 8])
        last_size = None if gap else size
        cursor += size + gap
    return fields, cursor


def test_criterion_4_layout_round_trip():
    with criterion(4, "100 random layouts recovered exactly; "
                      "merged byte arrays carry ambiguity note"):
        rng = random.Random(404)
        for _ in range(100):
            fields, total = random_layout(rng)
            ops = [ModelOp("alloc", callee="malloc", size=total)]
            for offset, size, name, cat, sign in fields:
                if name == "pointer":
                    value = ALLOC_BASE + rng.randrange(total)
                else:
                    value = rng.randrange(1, 0xFFF)
                for _rep in range(rng.randrange(1, 3)):
                    ops.append(ModelOp("mov-write", addr=ALLOC_BASE + offset,
                                       size=size, cat=cat, sign=sign,
                                       value=value))
            log = run_model(make_model(ops))
            layout = reconstruct_layout(log, ALLOC_BASE, size_hint=total)
            got = [(f.offset, f.size, f.category) for f in layout.fields]
            want = []
            cursor = 0
            for offset, size, name, _cat, _sign in fields:
                if offset > cursor:
                    want.append((cursor, offset - cursor, "char-array"))
                want.append((offset, size, name))
                cursor = offset + size
            if cursor < total:
                want.append((cursor, total - cursor, "char-array"))
            assert got == want, (fields, got)

        # An int header followed by byte-wise accesses over two adjacent
        # equal-granularity arrays collapses into one ambiguous array.
        ops = [ModelOp("alloc", callee="malloc", size=123),
               ModelOp("mov-write", addr=ALLOC_BASE, size=4,
                       sign="unsigned", value=2)]
        for off in range(4, 123):
            ops.append(ModelOp("mov-write", addr=ALLOC_BASE + off, size=1,
                               sign="signed", value=0x41))
        log = run_model(make_model(ops))
        layout = reconstruct_layout(log, ALLOC_BASE, size_hint=123)
        shape = [(f.offset, f.size, f.category) for f in layout.fields]
        assert shape == [(0, 4, "unsigned int"), (4, 119, "char-array")]
        assert AMBIGUITY_NOTE in layout.fields[1].notes


def test_criterion_5_calling_convention_recovery():
    with criterion(5, "fastcall 0-10 args exact; shadow space ignored; "
                      "xmm run yields 0x50 buffer"):
        for n in range(11):
            values = [0x101 + k for k in range(n)]
            ops = [ModelOp("sub-sp", amount=0x40),
                   ModelOp("call", callee="Target", args=values)]
            log = run_model(make_model(ops))
            record = next(c for c in recover_calls(log)
                          if c.callee_id == "Target")
            assert record.param_count == n, n
            assert list(record.stack_params) == values[4:]
            assert list(record.reg_params) == (values[:4] + [0] * 4)[:4]

        # A 0x20 sub is pure shadow space and yields no buffer record.
        log = run_model(make_model([
            ModelOp("sub-sp", amount=0x20),
            ModelOp("call", callee="Target", args=[1]),
        ]))
        assert find_stack_buffers(log) == []

        # Five consecutive 16-byte zeroing stores imply an 0x50 buffer.
        base = 0x7FEE00
        ops = [ModelOp("xmm-zero", addr=base + 16 * k) for k in range(5)]
        log = run_model(make_model(ops))
        records = find_stack_buffers(log)
        assert [(r.base, r.size) for r in records] == [(base, 0x50)]


def _access_ops(offsets, size=4):
    return [ModelOp("mov-write", addr=ALLOC_BASE + off, size=size,
                    value=1 + i)
            for i, off in enumerate(offsets)]


def _pattern(log):
    return extract_pattern(log, find_allocations(log))


def test_criterion_6_compiler_variance_stand_in():
    with criterion(6, "permuted non-memory instructions keep patterns "
                      "identical; one extra access diffs to one region"):
        offsets = [0, 8, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38]
        plain = [ModelOp("alloc", callee="malloc", size=0x100)]
        plain += _access_ops(offsets)
        padded = [ModelOp("alloc", callee="malloc", size=0x100)]
        for op in _access_ops(offsets):
            padded.append(ModelOp("nop"))
            padded.append(op)
            padded.append(ModelOp("nop"))
        log_a = run_model(make_model(plain))
        log_b = run_model(make_model(padded))
        pat_a = _pattern(log_a)
        pat_b = _pattern(log_b)
        assert pat_a.offsets == pat_b.offsets
        assert similarity(pat_a, pat_b, 0) == 1.0

        inserted = [ModelOp("alloc", callee="malloc", size=0x100)]
        inserted += _access_ops(offsets[:6])
        inserted.append(ModelOp("mov-write", addr=ALLOC_BASE + 0x80,
                                size=4, value=99))
        inserted += _access_ops(offsets[6:])
        log_c = run_model(make_model(inserted))
        report = diff_modified(pat_a, _pattern(log_c), tau=0, threshold=0.5)
        assert len(report.unmatched) == 1
        (lo_a, hi_a), (lo_b, hi_b) = report.unmatched[0]
        assert (hi_a - lo_a, hi_b - lo_b) == (0, 1)


def test_criterion_7_obfuscation_stand_in():
    with criterion(7, "canonical pattern survives an added decode stage"):
        offsets = [0, 4, 8, 0x10, 0x18, 0x20, 0x28, 0x40]
        canonical = [ModelOp("alloc", callee="malloc", size=0x100)]
        canonical += _access_ops(offsets)
        signature_pattern = _pattern(run_model(make_model(canonical)))

        # Decode stage: XOR-style read-modify-write over a staging buffer,
        # executed from outside the main module.
        staged = []
        for k in range(24):
            staged.append(ModelOp("mov-read", addr=0x3000 + 4 * k, size=4,
                                  rip=0x500000 + 8 * k))
            staged.append(ModelOp("mov-write", addr=0x3000 + 4 * k, size=4,
                                  value=(k * 37) ^ 0x5A))
        payload = [ModelOp("alloc", callee="malloc", size=0x100,
                           rip=MODULE_PAGE * PAGE_SIZE)]
        payload += _access_ops(offsets)
        model = make_model(
            staged + payload,
            mapped=[(0x3000, 0x8000), (0x500000, 0x501000)],
        )
        log = run_model(model)
        obf_pattern = _pattern(log)
        ratio = similarity(signature_pattern, obf_pattern)
        assert ratio >= 0.8
        # Without module attribution the staging accesses pollute the
        # pattern and drag the score below the threshold.
        raw = extract_pattern(log, find_allocations(log),
                              event_filter=lambda e: e.kind in ("read",
                                                                "write"))
        assert similarity(signature_pattern, raw) < 1.0 or \
            len(raw.offsets) > len(obf_pattern.offsets)


def test_criterion_8_entry_point_capture():
    with criterion(8, "entry reported once; injected fault precedes it "
                      "when the entry page is absent"):
        entry_addr = MODULE_PAGE * PAGE_SIZE
        for present in (True, False):
            model = make_model([ModelOp("nop"), ModelOp("nop")],
                               entry_present=present)
            guest = build_guest(model)
            entry, prefix = capture_entry_point(guest, model)
            assert entry == entry_addr
            executes = [e for e in prefix.events if e.kind == "execute"]
            assert len(executes) == 1
            assert executes[0].address == entry_addr
            if not present:
                fault_reads = [e for e in prefix.events if e.kind == "read"]
                assert fault_reads
                assert fault_reads[-1].seq < executes[0].seq
                assert fault_reads[-1].address // PAGE_SIZE == MODULE_PAGE


def test_criterion_9_mbec_legacy_equivalence():
    with criterion(9, "MBEC transition detection matches the reference "
                      "interpreter on 100 random models"):
        rng = random.Random(909)
        total = 0
        for _ in range(100):
            start = rng.choice(["user", "kernel"])
            ops = []
            for _switch in range(rng.randrange(0, 12)):
                ops.append(ModelOp("mode-switch",
                                   cpl=rng.choice(["user", "kernel"])))
                ops.append(ModelOp("nop"))
            model = make_model(ops, cpl=start)
            found = transitions(run_model(model))
            assert found == [(index, cpl) for index, _, cpl
                             in reference_transitions(model)]
            total += len(found)
        assert total == 267


def test_criterion_10_call_sequence_flagging():
    with criterion(10, "each of the 7 call-sequence rules flagged exactly "
                       "once when injected; zero hits on clean noise"):
        rng = random.Random(1010)
        noise_names = ["Foo", "Bar", "Baz", "Qux"]

        def run_calls(names):
            ops = [ModelOp("call", callee=name, args=[1])
                   for name in names]
            return recover_calls(run_model(make_model(ops)))

        for name, steps in EVASIVE_SEQUENCES:
            resolved = [s if isinstance(s, str) else s[0] for s in steps]
            names = [rng.choice(noise_names) for _ in range(20)]
            positions = sorted(rng.sample(range(20), len(resolved)))
            for pos, step in zip(positions, resolved):
                names[pos] = step
            hits = [h for h in flag_call_sequences(run_calls(names))
                    if h.rule == name]
            assert len(hits) == 1, name

        clean = [rng.choice(noise_names) for _ in range(30)]
        assert flag_call_sequences(run_calls(clean)) == []

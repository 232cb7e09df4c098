import copy
import dataclasses
import itertools
import json
import pickle
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace import guest as guest_mod
from memtrace import trace
from memtrace.cli import main
from memtrace.guest import (
    ACCESS_CATEGORIES,
    MODEL_OPS,
    PAGE_SIZE,
    PROFILE_IDS,
    Allowed,
    Guest,
    ModelOp,
    ModelParseError,
    PageFault,
    ProgramModel,
    SimulationError,
    Violation,
    build_guest,
    capture_entry_point,
    parse_model,
    run,
    serialize_model,
    transitions,
)
from memtrace.trace import (CATEGORIES, SIGN_VALUES, AccessEvent,
                            InstrDescriptor)

from helpers import (
    MODULE_PAGE,
    SCRATCH,
    SP_INIT,
    assert_built_as_constructed,
    capture_mix_ops,
    event_tuples,
    make_model,
    reference_interpret,
    reference_read_memory,
    reference_transitions,
    reference_write_memory,
    run_model,
)

DATA = Path(__file__).parent / "data"


def fresh_guest(page=0x3, present=True, hook=False):
    guest = Guest()
    guest.map_range(page * PAGE_SIZE, (page + 1) * PAGE_SIZE)
    guest.pages[page].present = present
    if hook:
        guest.pages[page].present = True
        guest.install_hidden_hook(page * PAGE_SIZE, b"\xcc")
        guest.pages[page].present = present
    return guest


def expected_outcome(profile, kind, cpl, hook, present):
    """Independent restatement of the permission rules."""
    if not present:
        return "fault"
    if hook and kind == "execute":
        return "allowed"
    if hook and kind == "read":
        return "violation"
    if profile == "normal":
        return "allowed"
    if profile == "user-exec-denied":
        return "violation" if (kind, cpl) == ("execute", "user") else "allowed"
    if profile == "kernel-exec-denied":
        return "violation" if (kind, cpl) == ("execute", "kernel") else "allowed"
    return "allowed" if kind == "execute" else "violation"


class TestCheckAccess:
    def test_user_exec_denied_traps_user_execution(self):
        guest = fresh_guest()
        guest.switch_profile("user-exec-denied")
        out = guest.check_access(0x3000, "execute", "user")
        assert isinstance(out, Violation)

    def test_execute_only_allows_kernel_execution(self):
        guest = fresh_guest()
        guest.switch_profile("execute-only")
        assert isinstance(guest.check_access(0x3000, "execute", "kernel"), Allowed)

    def test_not_present_is_fault_not_violation(self):
        guest = fresh_guest(present=False)
        out = guest.check_access(0x3000, "read", "user")
        assert isinstance(out, PageFault)

    def test_revoked_page_denies_execute_under_normal_only(self):
        """A page whose number is in exec_revoked denies execute in both
        modes under normal, hooked or not, and allows reads and writes;
        execute-only, and a hidden hook under the exec-denied profiles,
        still allow execute on it."""
        guest = fresh_guest()
        guest.exec_revoked.add(3)
        hooked = fresh_guest(hook=True)
        hooked.exec_revoked.add(3)
        for cpl in ("user", "kernel"):
            for revoked in (guest, hooked):
                assert isinstance(revoked.check_access(0x3ffc, "execute", cpl),
                                  Violation)
            for kind in ("read", "write"):
                assert isinstance(guest.check_access(0x3000, kind, cpl),
                                  Allowed)
        guest.switch_profile("execute-only")
        for cpl in ("user", "kernel"):
            assert isinstance(guest.check_access(0x3000, "execute", cpl),
                              Allowed)
            hooked.switch_profile(f"{cpl}-exec-denied")
            assert isinstance(hooked.check_access(0x3000, "execute", cpl),
                              Allowed)

    def test_exhaustive_truth_table(self):
        cases = itertools.product(
            ("normal", "user-exec-denied", "kernel-exec-denied", "execute-only"),
            ("read", "write", "execute"),
            ("user", "kernel"),
            (False, True),
            (True, False),
        )
        checked = 0
        for profile, kind, cpl, hook, present in cases:
            guest = fresh_guest(hook=hook, present=present)
            guest.switch_profile(profile)
            out = guest.check_access(0x3000, kind, cpl)
            got = ("fault" if isinstance(out, PageFault)
                   else "violation" if isinstance(out, Violation) else "allowed")
            want = expected_outcome(profile, kind, cpl, hook, present)
            assert got == want, (profile, kind, cpl, hook, present)
            checked += 1
        assert checked == 96

    def test_noncanonical_address_rejected(self):
        """The error names the address, in signed hex, and the size."""
        guest = fresh_guest()
        for address, shown in ((1 << 50, "0x4000000000000"), (-8, "-0x8")):
            with pytest.raises(ValueError, match=rf"^address {shown} \(size 1\) "
                               "outside 48-bit canonical range$"):
                guest.check_access(address, "read", "user")

    def test_access_must_end_below_2_48(self):
        """The last byte counts too: 4 bytes at 2**48 - 4 fit, 8 run
        past it."""
        top = 1 << 48
        mapped = [(top - PAGE_SIZE, top + PAGE_SIZE)]

        def write(size):
            op = ModelOp("mov-write", addr=top - 4, size=size, value=1)
            return run_model(make_model([op], mapped=mapped))

        assert [e.address for e in write(4).events if e.kind == "write"] == [
            top - 4]
        with pytest.raises(ValueError, match="canonical"):
            write(8)


class TestMapRange:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every _Page built while the test runs."""
        built = []

        class CountedPage(guest_mod._Page):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(guest_mod, "_Page", CountedPage)
        return built

    def test_whole_address_space_builds_pages_on_touch(self, built):
        guest = Guest()
        guest.map_range(0, 1 << 48)
        assert built == [] and len(guest.pages) == 0
        assert isinstance(guest.check_access(0x5000, "read", "user"), Allowed)
        guest.write_memory(0x7ffffffc, b"\x01" * 8)  # two pages
        assert guest.read_memory(0x7ffffffc, 8) == b"\x01" * 8
        assert guest.inject_page_fault(0x5008) == "already-present"
        assert guest.page_present((1 << 48) - 1)
        assert not guest.page_present(1 << 48)
        assert len(built) == len(guest.pages) == 4
        assert set(guest.pages) == {0x5, 0x7ffff, 0x80000, (1 << 36) - 1}

    def test_overlapping_and_adjacent_ranges(self, built):
        guest = Guest()
        for lo, hi in [(0x8000, 0xa000), (0x3000, 0x5000), (0x5000, 0x6000),
                       (0x9000, 0xc001), (0x20000, 0x20000)]:
            guest.map_range(lo, hi)
        mapped = {n for n in range(0x30) if guest.page_present(n * PAGE_SIZE)}
        assert mapped == set(range(0x3, 0x6)) | set(range(0x8, 0xd))
        assert len(built) == len(mapped)

    def test_page_lookup_builds_mapped_pages_once(self, built):
        """`pages[n]` is None for an unmapped n and stores nothing; for a
        mapped n it builds the page on first touch and returns it after."""
        guest = Guest()
        guest.map_range(0x3000, 0x4000)
        assert guest.pages[0x2] is None and guest.pages[0x4] is None
        assert dict(guest.pages) == {} and built == []
        page = guest.pages[0x3]
        assert page is not None and guest.pages[0x3] is page
        assert dict(guest.pages) == {0x3: page} and built == [page]

    def test_huge_mapped_header_simulates_alike(self, built):
        """A model mapping all of [0, 2**48) traces exactly as one that
        maps only its scratch range, building a page per page touched."""
        ops = [ModelOp("mov-write", addr=0x3ffc, size=8, value=7),
               ModelOp("mov-read", addr=0x3ffc, size=8),
               ModelOp("push", value=1),
               ModelOp("mov-write", addr=0x7000, size=4, value=2)]
        small = run_model(make_model(ops))
        del built[:]
        huge = run_model(make_model(ops, mapped=[(0, 1 << 48)]))
        assert huge == small
        assert len(built) <= 6


class TestSwitchProfile:
    def test_switch_changes_decisions(self):
        guest = fresh_guest()
        assert isinstance(guest.check_access(0x3000, "execute", "user"), Allowed)
        guest.switch_profile("user-exec-denied")
        assert isinstance(guest.check_access(0x3000, "execute", "user"), Violation)

    def test_switch_to_same_profile_is_noop(self):
        guest = fresh_guest()
        guest.switch_profile("normal")
        assert guest.active_profile == "normal"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            fresh_guest().switch_profile("bogus")

    def test_random_switch_sequence_model_check(self):
        rng = random.Random(1)
        guest = fresh_guest()
        profiles = ("normal", "user-exec-denied", "kernel-exec-denied",
                    "execute-only")
        for _ in range(200):
            profile = rng.choice(profiles)
            guest.switch_profile(profile)
            kind = rng.choice(("read", "write", "execute"))
            cpl = rng.choice(("user", "kernel"))
            out = guest.check_access(0x3000, kind, cpl)
            got = "violation" if isinstance(out, Violation) else "allowed"
            assert got == expected_outcome(profile, kind, cpl, False, True)


class TestHiddenHooks:
    def test_read_after_hook_returns_pristine(self):
        guest = fresh_guest()
        guest.write_memory(0x3000, b"\x90\x90")
        guest.install_hidden_hook(0x3000, b"\xcc")
        assert guest.read_memory(0x3000, 2) == b"\x90\x90"

    def test_hook_on_absent_page_rejected(self):
        guest = fresh_guest(present=False)
        with pytest.raises(SimulationError):
            guest.install_hidden_hook(0x3000, b"\xcc")

    def test_second_hook_changes_no_byte(self):
        """A hook adds its page's number to hooked and leaves every byte,
        so reads, and writes after it, see what the program wrote."""
        guest = fresh_guest()
        guest.write_memory(0x3000, b"\x01\x02")
        contents, _ = _page_state(guest)
        guest.install_hidden_hook(0x3000, b"\xcc")
        guest.install_hidden_hook(0x3001, b"\xdd")
        assert _page_state(guest) == (contents, {3})
        assert guest.read_memory(0x3000, 2) == b"\x01\x02"
        guest.write_memory(0x3001, b"\x03")
        assert guest.read_memory(0x3000, 2) == b"\x01\x03"

    def test_hook_across_a_page_end_hooks_every_page_it_spans(self):
        guest = Guest()
        guest.map_range(0x3000, 0x6000)
        guest.write_memory(0x3ffe, b"\x01\x02\x03\x04\x05")
        contents, _ = _page_state(guest)
        guest.install_hidden_hook(0x3ffe, b"\xcc" * 5)
        assert _page_state(guest) == (contents, {3, 4})
        assert guest.read_memory(0x3ffe, 5) == b"\x01\x02\x03\x04\x05"

    @pytest.mark.parametrize("second", ["unmapped", "absent"])
    def test_hook_across_a_page_end_changes_nothing_on_error(self, second):
        guest = Guest()
        guest.map_range(0x3000, 0x4000 if second == "unmapped" else 0x5000)
        guest.write_memory(0x3ff0, b"\x01")  # builds page 3
        if second == "absent":
            guest.pages[4].present = False
        before = _page_state(guest)
        with pytest.raises(SimulationError, match="cannot hook"):
            guest.install_hidden_hook(0x3ffe, b"\xcc" * 5)
        assert _page_state(guest) == before

    def test_write_then_read_on_a_hooked_page(self):
        """A read logs what the program wrote, also where a hook lies on
        the page."""
        model = make_model([ModelOp("mov-write", addr=0x5010, value=0x1234),
                            ModelOp("mov-read", addr=0x5010)])
        guest = build_guest(model)
        guest.install_hidden_hook(0x5800, b"\xcc")
        assert [e.value for e in run(guest, model).events] == [0x1234] * 2

    # The pages a hook may go on: the entry page, the scratch range, the
    # two heap pages and the two stack pages about SP_INIT.
    HOOKABLE = ((MODULE_PAGE,) + tuple(range(0x3, 0x8)) + (0x9, 0xa)
                + (SP_INIT // PAGE_SIZE - 1, SP_INIT // PAGE_SIZE))

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_hooks_are_invisible_to_the_program(self, seed):
        """Every program event has the same kind, address, size and
        value with and without 1-3 hooks on present pages, and with and
        without entry capture; only the monitor's page-fault and
        execute/other events are left out."""
        rng = random.Random(seed)
        ops = capture_mix_ops(rng, rng.randrange(40))
        for _ in range(rng.randrange(20)):  # accesses about a page end
            address = 0x5fe0 + 8 * rng.randrange(8)
            ops.insert(rng.randrange(1, len(ops) + 1), rng.choice([
                ModelOp("mov-write", addr=address, size=rng.choice([1, 4, 8]),
                        value=rng.randrange(1 << 32)),
                ModelOp("mov-read", addr=address, size=rng.choice([4, 8]))]))
        model = make_model(ops)
        hooks = [(page * PAGE_SIZE + rng.randrange(PAGE_SIZE - 64),
                  b"\xcc" * rng.randrange(1, 65))
                 for page in rng.sample(self.HOOKABLE, rng.randrange(1, 4))]

        def program_events(hooked, captured):
            guest = build_guest(model)
            for page in (0x9, 0xa):
                guest.inject_page_fault(page * PAGE_SIZE)
            for address, hooked_bytes in (hooks if hooked else ()):
                guest.install_hidden_hook(address, hooked_bytes)
            if captured:  # as capture_entry_point does
                guest.exec_revoked.add(model.entry_page)
            log = run(guest, model)
            assert guest.exec_revoked == set()
            return [(e.kind, e.address, e.operand_size, e.value)
                    for e in log.events
                    if e.instr.category != "page-fault"
                    and (e.kind, e.instr.category) != ("execute", "other")]

        plain = program_events(False, False)
        for hooked, captured in ((True, False), (False, True), (True, True)):
            assert program_events(hooked, captured) == plain


# Pages 0x10-0x15: 0x12 and 0x14 are unmapped, 0x10 is mapped but not
# built until first touched, and 0x11, 0x13 and 0x15 hooked.
MEMORY_PAGES = range(0x10, 0x16)


def _memory_guest(seed: int) -> Guest:
    rng = random.Random(seed)
    guest = Guest()
    for page in MEMORY_PAGES:
        if page in (0x12, 0x14):
            continue
        guest.map_range(page * PAGE_SIZE, (page + 1) * PAGE_SIZE)
        if page != 0x10:
            guest.pages[page].content[:] = rng.randbytes(PAGE_SIZE)
    guest.install_hidden_hook(0x11 * PAGE_SIZE + 7, b"\xcc" * 9)
    guest.install_hidden_hook(0x13 * PAGE_SIZE + PAGE_SIZE - 3, b"\xcc\xcc")
    guest.install_hidden_hook(0x15 * PAGE_SIZE, b"\xcc")
    return guest


def _page_state(guest: Guest):
    """(Each built page's bytes by its number, the hooked numbers)."""
    return ({number: bytes(page.content)
             for number, page in guest.pages.items()}, set(guest.hooked))


def _memory_outcome(call):
    try:
        return call()
    except SimulationError as exc:
        return ("SimulationError", str(exc))


MEMORY_OP = st.tuples(
    st.sampled_from(["read", "write"]),
    st.integers(0x10 * PAGE_SIZE - 16, 0x16 * PAGE_SIZE + 16),
    st.one_of(st.integers(-PAGE_SIZE - 24, 24), st.integers(0, 3 * PAGE_SIZE)),
)


class TestPageSlicedMemory:
    @given(seed=st.integers(0, 2**16), ops=st.lists(MEMORY_OP, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_byte_loop(self, seed, ops):
        """Reads and writes equal a byte-at-a-time loop: the same
        bytes, the same error at the same first unmapped address, and the
        same pages after a write that stopped part-way."""
        guest, reference = _memory_guest(seed), _memory_guest(seed)
        assert 0x10 not in guest.pages  # mapped, built on first touch
        rng = random.Random(seed)
        for action, address, size in ops:
            if action == "write":
                data = rng.randbytes(max(size, 0))
                got = _memory_outcome(lambda: guest.write_memory(address, data))
                want = _memory_outcome(
                    lambda: reference_write_memory(reference, address, data))
            else:
                got = _memory_outcome(lambda: guest.read_memory(address, size))
                want = _memory_outcome(
                    lambda: reference_read_memory(reference, address, size))
            assert got == want
            assert _page_state(guest) == _page_state(reference)

    def test_allowed_is_one_shared_instance(self):
        guest = fresh_guest()
        assert guest.check_access(0x3000, "read", "user") is guest.check_access(
            0x3008, "write", "kernel")


class TestInjectPageFault:
    def test_absent_page_becomes_zero_filled(self):
        guest = Guest()
        assert guest.inject_page_fault(0x7000) == "injected"
        assert guest.page_present(0x7000)
        assert guest.read_memory(0x7000, 16) == bytes(16)

    def test_three_page_buffer_needs_three_injections(self):
        guest = Guest()
        for page in range(3):
            assert guest.inject_page_fault(0x7000 + page * PAGE_SIZE) == "injected"
        assert all(guest.page_present(0x7000 + p * PAGE_SIZE) for p in range(3))

    def test_already_present_is_warning(self):
        guest = fresh_guest()
        assert guest.inject_page_fault(0x3000) == "already-present"

    def test_random_absent_set_presence_bitmap(self):
        rng = random.Random(7)
        guest = Guest()
        injected = {rng.randrange(0x100, 0x200) for _ in range(30)}
        for page in injected:
            guest.inject_page_fault(page * PAGE_SIZE)
        for page in range(0x100, 0x200):
            assert guest.page_present(page * PAGE_SIZE) == (page in injected)


class TestRun:
    def test_empty_model_empty_trace(self):
        log = run_model(make_model([]))
        assert len(log.events) == 0

    def test_guest_mode_outside_the_cpl_values_is_rejected(self):
        """The run checks the guest's mode, the one field it reads that
        no ModelOp or ProgramModel check vouches for."""
        model = make_model([ModelOp("nop")])
        guest = build_guest(model)
        guest.mode = "root"
        with pytest.raises(ValueError, match="^bad cpl 'root'$"):
            run(guest, model)

    def test_mapped_that_is_no_list_is_rejected(self):
        with pytest.raises(ValueError, match="^mapped 5 is not a list$"):
            ProgramModel(ops=[], entry_page=1, sp_init=0x7ff000, mapped=5)

    @pytest.mark.parametrize("profile", PROFILE_IDS)
    def test_every_data_access_is_logged(self, profile):
        """Whatever the active profile allows, every data access, to a
        hooked page too, is trapped and logged in program order."""
        model = make_model([
            ModelOp("mov-write", addr=0x3000, size=8, value=1),
            ModelOp("mov-read", addr=0x3000, size=8),
            ModelOp("mov-read", addr=0x4000, size=4),
            ModelOp("push", value=2),
            ModelOp("xmm-zero", addr=0x5000),
        ])
        guest = build_guest(model)
        guest.install_hidden_hook(0x4000, b"\xcc")
        guest.switch_profile(profile)
        log = run(guest, model)
        assert [(e.kind, e.address) for e in log.events] == [
            ("write", 0x3000), ("read", 0x3000), ("read", 0x4000),
            ("write", SP_INIT - 8), ("write", 0x5000)]

    def test_one_permission_check_per_fetch(self, monkeypatch):
        """Data accesses are trapped without a permission check: k data
        ops with no mode switch cost k checks, one per fetch."""
        calls = []
        check = Guest.check_access

        def counting(self, *args):
            calls.append(args[1])
            return check(self, *args)

        monkeypatch.setattr(Guest, "check_access", counting)
        ops = [ModelOp("mov-write", addr=0x3000 + 8 * k, value=k)
               for k in range(10)]
        ops += [ModelOp("mov-read", addr=0x3000 + 8 * k) for k in range(10)]
        ops += [ModelOp("push", value=1), ModelOp("xmm-zero", addr=0x4000)]
        log = run_model(make_model(ops))
        assert len(log.events) == len(ops)
        assert calls == ["execute"] * len(ops)

    def test_demand_paging_of_allocated_buffer(self):
        model = make_model([
            ModelOp("alloc", callee="malloc", size=0x100),
            ModelOp("mov-write", addr=0x9008, size=8, value=5),
        ])
        log = run_model(model)
        cats = [e.instr.category for e in log.events]
        # api-call, injected fault (page-fault/read), then the write
        assert cats == ["api-call", "page-fault", "int-move"]
        assert log.events[1].kind == "read"

    def test_unmapped_address_faults_simulation(self):
        model = make_model([ModelOp("mov-write", addr=0xdead0000, size=8)],
                           mapped=[])
        with pytest.raises(SimulationError):
            run_model(model)

    def test_run_error_names_its_op(self):
        """An error an op raises names the op, counting op lines from 1,
        and keeps its type."""
        model = make_model([ModelOp("nop"), ModelOp("nop"),
                            ModelOp("mov-write", addr=0xdead0000, size=8)])
        with pytest.raises(SimulationError, match="^op 3: access to unmapped, "
                           "un-allocatable address 0xdead0000$"):
            run_model(model)
        model = make_model([ModelOp("mov-read", addr=1 << 48, size=8)],
                           mapped=[(1 << 48, (1 << 48) + PAGE_SIZE)])
        with pytest.raises(ValueError, match=r"^op 1: address 0x1000000000000 "
                           r"\(size 8\) outside 48-bit canonical range$"):
            run_model(model)

    def test_random_model_matches_reference_interpreter(self):
        rng = random.Random(99)
        ops = []
        pushes = 0
        for _ in range(200):
            choice = rng.randrange(9)
            if choice == 0:
                ops.append(ModelOp("mov-read",
                                   addr=rng.randrange(0x3000, 0x7000), size=rng.choice([1, 2, 4, 8])))
            elif choice == 1:
                ops.append(ModelOp("mov-write",
                                   addr=rng.randrange(0x3000, 0x7000),
                                   size=rng.choice([1, 2, 4, 8]),
                                   value=rng.randrange(1 << 16)))
            elif choice == 2:
                ops.append(ModelOp("push", value=rng.randrange(1 << 16)))
                pushes += 1
            elif choice == 3:
                ops.append(ModelOp("sub-sp", amount=rng.choice([0x20, 0x30, 0x40])))
            elif choice == 4:
                nargs = rng.randrange(0, 7)
                ops.append(ModelOp("call", callee="Fn",
                                   args=[rng.randrange(1, 1 << 12)
                                         for _ in range(nargs)]))
            elif choice == 5:
                ops.append(ModelOp("xmm-zero",
                                   addr=rng.randrange(0x3000, 0x7000)))
            elif choice == 6:
                ops.append(ModelOp("alloc", callee="malloc",
                                   size=rng.randrange(1, 0x2000)))
            elif choice == 7:
                ops.append(ModelOp("mode-switch"))
            else:
                ops.append(ModelOp("nop"))
        model = make_model(ops)
        log = run_model(model)
        assert event_tuples(log) == reference_interpret(model)

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_read_values_match_reference_interpreter(self, seed):
        """Reads land on the bytes that mov-writes, pushes, calls and xmm
        zeroing stored, and sub-sp did not, about a page end and on the
        stack, and log what the reference's byte memory holds there."""
        rng = random.Random(seed)
        ops = []
        for _ in range(rng.randrange(60)):
            address = rng.choice([0x3ff0, SP_INIT - 0x40]) + rng.randrange(48)
            size = rng.choice([1, 2, 4, 8])
            ops.append(rng.choice([
                ModelOp("mov-read", addr=address, size=size),
                ModelOp("mov-write", addr=address, size=size,
                        value=rng.randrange(1 << 64)),
                ModelOp("push", value=rng.randrange(1 << 64)),
                ModelOp("ret"),
                ModelOp("sub-sp", amount=8),
                ModelOp("call", callee="Fn", args=[
                    rng.randrange(1, 1 << 12) for _ in range(rng.randrange(7))]),
                ModelOp("xmm-zero", addr=address)]))
        model = make_model(ops)
        assert event_tuples(run_model(model)) == reference_interpret(model)


class TestCaptureWork:
    def test_one_descriptor_per_distinct_instruction(self, monkeypatch):
        """The run checks each distinct (cat, sign, callee) once, not once
        per event, per value or per call's arguments."""
        checked = []
        post_init = InstrDescriptor.__post_init__

        def counting(self):
            checked.append(self)
            post_init(self)

        monkeypatch.setattr(InstrDescriptor, "__post_init__", counting)
        ops = [ModelOp("alloc", callee="malloc", size=0x40)]
        for k in range(40):
            ops += [ModelOp("mov-write", addr=0x9000 + 8 * (k % 4), value=k % 3),
                    ModelOp("mov-read", addr=0x9000 + 8 * (k % 4)),
                    ModelOp("push", value=5),
                    ModelOp("call", callee="Foo", args=[k, 2, 3, 4, 5]),
                    ModelOp("ret"), ModelOp("ret")]
        log = run_model(make_model(ops))
        distinct = {(i.category, i.signedness, i.callee_id)
                    for i in (e.instr for e in log.events)}
        assert len(log.events) > 200
        assert len({e.value for e in log.events}) > 3
        assert len({e.register_args for e in log.events}) > 40
        assert len(checked) == len(distinct)

    def test_no_event_check_in_the_run(self, monkeypatch):
        """The run builds every event without AccessEvent's checks: the
        ops were checked when they were made."""
        checked = []
        post_init = AccessEvent.__post_init__

        def counting(self):
            checked.append(self)
            post_init(self)

        monkeypatch.setattr(AccessEvent, "__post_init__", counting)
        log = run_model(make_model(capture_mix_ops(random.Random(4), 3000)))
        assert len(log.events) > 3000
        assert checked == []

    @pytest.mark.parametrize("kwargs, message", [
        (dict(callee=1), "callee 1 is not a string"),
        (dict(callee=["Foo"]), r"callee \['Foo'\] is not a string"),
        (dict(args=["a", "b", "c", "d"]),
         r"args \['a', 'b', 'c', 'd'\] must be a list of integers"),
        (dict(args=[1.5]), r"args \[1.5\] must be a list of integers"),
        (dict(args=[0, None]), r"args \[0, None\] must be a list of integers"),
        (dict(args="abcd"), "args 'abcd' must be a list of integers"),
        (dict(args=5), "args 5 must be a list of integers"),
        (dict(args=[True, 2]), r"args \[True, 2\] must be a list of integers"),
    ], ids=["int-callee", "list-callee", "string-args", "float-arg",
            "none-arg", "string", "int", "bool-arg"])
    def test_call_values_checked_at_construction(self, kwargs, message):
        """The run checks no event, so a callee or an argument of the
        wrong type must stop at the op: it would write a trace that
        parse_trace rejects."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelOp("call", **kwargs)

    @pytest.mark.parametrize("size", [1.5, "8", [8], True])
    def test_alloc_size_checked_at_construction(self, size):
        """An alloc's size becomes its event's first argument, and a
        mov-write's its operand size."""
        with pytest.raises(ValueError, match="^size .* is not an integer$"):
            ModelOp("alloc", callee="malloc", size=size)
        with pytest.raises(ValueError, match="^size .* is not an integer$"):
            ModelOp("mov-write", addr=0x7fe000, size=size, value=1)

    @pytest.mark.parametrize("tid", [True, 1.0, "0x1", None])
    def test_tid_checked_at_construction(self, tid):
        """A model's tid is the tid column of every event, which
        parse_trace takes only as an exact int."""
        with pytest.raises(ValueError, match="^tid .* is not an integer$"):
            make_model([ModelOp("nop")], tid=tid)

    @pytest.mark.parametrize("entry_page", [True, 1.0, "0x401"])
    def test_entry_page_checked_at_construction(self, entry_page):
        """True ran, and wrote a header that parse_model rejects; 1.0 ran
        to the module range (4096.0, 8192.0)."""
        with pytest.raises(ValueError,
                           match="^entry_page .* is not an integer$"):
            make_model([ModelOp("nop")], entry_page=entry_page)

    @pytest.mark.parametrize("sp_init", [SP_INIT + 0.5, True, None])
    def test_sp_init_checked_at_construction(self, sp_init):
        """SP_INIT + 0.5 made serialize_model and run raise TypeError."""
        with pytest.raises(ValueError, match="^sp_init .* is not an integer$"):
            make_model([ModelOp("nop")], sp_init=sp_init)

    @pytest.mark.parametrize("mapped", [[(0x3000, 32768.0)],
                                        [(0x3000, 0x4000), (True, 0x8000)]])
    def test_mapped_bounds_checked_at_construction(self, mapped):
        with pytest.raises(ValueError,
                           match="^mapped bound .* is not an integer$"):
            make_model([ModelOp("nop")], mapped=mapped)

    @pytest.mark.parametrize("module_range", [(4096.0, 8192),
                                              (0x401000, True)])
    def test_module_range_bounds_checked_at_construction(self, module_range):
        with pytest.raises(ValueError,
                           match="^module_range bound .* is not an integer$"):
            make_model([ModelOp("nop")], module_range=module_range)

    def test_list_ranges_are_held_as_tuples(self):
        """As parse_model gives them, so a model made of lists equals its
        own parse."""
        model = make_model([ModelOp("nop")], mapped=[[0x3000, 0x4000]],
                           module_range=[0x401000, 0x402000])
        assert model.mapped == [(0x3000, 0x4000)]
        assert model.module_range == (0x401000, 0x402000)
        assert parse_model(serialize_model(model)) == model

    def test_model_is_frozen_after_its_checks(self):
        """The run trusts what the checks checked, so no field can
        change after them: entry_page = True would run."""
        model = make_model([ModelOp("nop")])
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.entry_page = True

    @pytest.mark.parametrize("op", [
        ("mov-write", 0x7fe000, 3, 1, None, None, 0, None, None, None, None,
         None),
        ["nop"],
        None,
    ], ids=["twelve-tuple", "list", "none"])
    def test_every_op_must_be_a_model_op(self, op):
        """A plain 12-tuple skipped every op check, and its 3-byte write
        reached the trace, which parse_trace rejects."""
        with pytest.raises(ValueError, match="^every op must be a ModelOp$"):
            make_model([ModelOp("nop"), op])

    @pytest.mark.parametrize("kwargs, message", [
        (dict(op="push", value=-1), "value -1 is negative"),
        (dict(op="mov-write", addr=0x3000, value=-(1 << 64)),
         "value -18446744073709551616 is negative"),
        (dict(op="sub-sp", amount=-8), "amount -8 is negative"),
        (dict(op="call", args=[1, 2, 3, 4, -5]), "argument -5 is negative"),
        (dict(op="call", args=[-1, 2]), "argument -1 is negative"),
    ], ids=["push", "mov-write", "sub-sp", "stack-arg", "register-arg"])
    def test_negative_numbers_stop_at_the_op(self, kwargs, message):
        """The trace spells a value "0x-1", which no reader takes: a
        negative value, amount or stack argument simulated with exit 0
        and left `bases` to exit 2."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelOp(**kwargs)

    def test_equal_args_of_other_types_are_not_shared(self):
        """An int subclass's 1 equals 1, but each event holds its own
        arguments: the second call keeps its own, as an unshared build
        would.  (A bool, the other int that equals 1, stops at the op.)"""
        class Int(int):
            pass

        ops = [ModelOp("call", callee="Foo", args=[arg, 0, 0, 0],
                       rip=MODULE_PAGE * PAGE_SIZE) for arg in (1, Int(1))]
        first, second = run_model(make_model(ops)).events
        assert first.value == second.value
        assert first.instr is second.instr
        assert [type(e.register_args[0]) for e in (first, second)] == [
            int, Int]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(op="mov-write", addr=0x3000, size=3), "bad operand size 3"),
        (dict(op="mov-read", addr=0x3000, size=2, cat="float-move"),
         "float-move implies operand_size 4 or 8"),
    ], ids=["size-3", "short-float"])
    def test_emitted_events_are_checked(self, kwargs, message):
        """An access the event checks would reject stops at its op."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_model(make_model([ModelOp(**kwargs)]))

    def test_golden_trace(self, tmp_path, capsys):
        """A model touching every op, page-crossing accesses, demand paging,
        escaped callees and values past 2**64 traces to the committed bytes."""
        out = tmp_path / "golden.trace"
        assert main(["simulate", str(DATA / "golden.model"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == "30 events\n"
        assert out.read_bytes() == (DATA / "golden.trace").read_bytes()


class TestEntryCapture:
    def test_present_entry_page(self):
        model = make_model([ModelOp("nop"), ModelOp("nop")])
        guest = build_guest(model)
        entry, prefix = capture_entry_point(guest, model)
        assert entry == MODULE_PAGE * PAGE_SIZE
        entry_events = [e for e in prefix.events if e.kind == "execute"]
        assert len(entry_events) == 1
        assert entry_events[0].address == entry

    def test_absent_entry_page_injects_fault_first(self):
        model = make_model([ModelOp("nop")], entry_present=False)
        guest = build_guest(model)
        entry, prefix = capture_entry_point(guest, model)
        assert entry == MODULE_PAGE * PAGE_SIZE
        kinds = [(e.kind, e.instr.category) for e in prefix.events]
        assert kinds[-2:] == [("read", "page-fault"), ("execute", "other")]

    def test_entry_reported_once_then_run_continues(self):
        model = make_model([
            ModelOp("nop"),
            ModelOp("mov-write", addr=0x3000, size=4),
        ])
        guest = build_guest(model)
        entry, prefix = capture_entry_point(guest, model)
        assert len(prefix.events) == 1

    def test_pre_entry_kernel_phase(self):
        # Kernel phase runs from a different module; entry is the first
        # user-mode fetch of the entry page.
        model = make_model(
            [
                ModelOp("mov-write", addr=0x3000, size=8, rip=0x500000),
                ModelOp("mode-switch", cpl="user"),
                ModelOp("nop", rip=MODULE_PAGE * PAGE_SIZE),
            ],
            cpl="kernel",
            mapped=[(0x3000, 0x8000), (0x500000, 0x501000)],
        )
        guest = build_guest(model)
        entry, prefix = capture_entry_point(guest, model)
        assert entry == MODULE_PAGE * PAGE_SIZE
        entry_event = prefix.events[-1]
        assert entry_event.cpl == "user"

    def test_absent_entry_page_outside_the_module_range(self):
        """An entry page that no range maps is never built up front: the
        first fetch on it injects a page fault, and capture finds the
        entry there."""
        model = make_model([ModelOp("mov-write", addr=0x3000, size=4,
                                    value=1)],
                           entry_present=False,
                           module_range=(0x500000, 0x501000))
        assert build_guest(model).pages[MODULE_PAGE] is None
        entry, _ = capture_entry_point(build_guest(model), model)
        assert entry == 0x401000
        log = run(build_guest(model), model)
        assert [(e.kind, e.instr.category, e.address) for e in log.events] == [
            ("read", "page-fault", 0x401000), ("write", "int-move", 0x3000)]

    def test_model_never_reaching_entry_errors(self):
        model = make_model([ModelOp("nop", rip=0x500000)],
                           mapped=[(0x500000, 0x501000)])
        guest = build_guest(model)
        with pytest.raises(SimulationError):
            capture_entry_point(guest, model)

    @pytest.mark.parametrize("entry_present", [True, False])
    def test_capture_empties_exec_revoked(self, entry_present):
        """The entry fetch takes the entry page out of exec_revoked, also
        where a demand fault rebuilt the page first."""
        model = make_model([ModelOp("nop"), ModelOp("nop")],
                           entry_present=entry_present)
        guest = build_guest(model)
        capture_entry_point(guest, model)
        assert guest.exec_revoked == set()

    def test_capture_never_reaching_entry_leaves_it_revoked(self):
        model = make_model([ModelOp("nop", rip=0x500000)],
                           mapped=[(0x500000, 0x501000)])
        guest = build_guest(model)
        with pytest.raises(SimulationError, match="^model exhausted before "
                           "executing the entry page$"):
            capture_entry_point(guest, model)
        assert guest.exec_revoked == {MODULE_PAGE}

    def test_capture_on_a_hooked_entry_page(self):
        """Under normal, a revoked page denies execute whether or not a
        hook lies on it, so capture finds the entry there too."""
        model = make_model([ModelOp("nop"), ModelOp("nop")])
        guest = build_guest(model)
        guest.install_hidden_hook(model.entry_address + 0x800, b"\xcc")
        entry, prefix = capture_entry_point(guest, model)
        assert entry == 0x401000
        assert [(e.kind, e.instr.category) for e in prefix.events] == [
            ("execute", "other")]
        assert guest.exec_revoked == set() and guest.hooked == {MODULE_PAGE}

    def test_prefix_ends_at_the_entry_event(self):
        """An earlier execute event at the entry address (an alloc's hook,
        on a fetch the profile allowed) does not end the prefix."""
        entry = MODULE_PAGE * PAGE_SIZE
        model = make_model([ModelOp("alloc", size=0x40, rip=entry),
                            ModelOp("mode-switch", cpl="kernel"),
                            ModelOp("nop", rip=entry)])
        guest = build_guest(model)
        guest.switch_profile("kernel-exec-denied")
        address, prefix = capture_entry_point(guest, model)
        assert address == entry
        assert [(e.kind, e.instr.category, e.cpl) for e in prefix.events] == [
            ("execute", "api-call", "user"), ("execute", "other", "kernel")]


class TestTransitions:
    def _switch_model(self, pattern, start="user"):
        ops = []
        for mode in pattern:
            ops.append(ModelOp("mode-switch", cpl=mode))
            ops.append(ModelOp("nop"))
        return make_model(ops, cpl=start)

    def test_single_switch_one_transition(self):
        model = self._switch_model(["user"], start="kernel")
        found = transitions(run_model(model))
        assert len(found) == 1
        assert found[0][1] == "user"

    def test_no_switch_no_transitions(self):
        model = make_model([ModelOp("nop"), ModelOp("nop")])
        assert transitions(run_model(model)) == []

    def test_capture_prefix_lists_its_entry_event(self):
        """A capture_entry_point trace ends in its entry event, an
        execute/"other" event, so transitions lists it though no switch
        came before it."""
        model = make_model([ModelOp("nop"), ModelOp("nop")])
        _, prefix = capture_entry_point(build_guest(model), model)
        assert transitions(prefix) == [(0, "user")]

    def test_mbec_legacy_equivalence_random(self):
        """One report serves MBEC and the legacy U/S-bit check: it lies
        where the reference interpreter puts its transition markers."""
        rng = random.Random(5)
        for _ in range(50):
            start = rng.choice(["user", "kernel"])
            pattern = [rng.choice(["user", "kernel"]) for _ in range(10)]
            model = self._switch_model(pattern, start=start)
            assert transitions(run_model(model)) == [
                (index, cpl) for index, _, cpl in reference_transitions(model)]

    # Code pages outside the module, faulted in on their first fetch.
    LAZY_PAGES = (0x500, 0x502)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mbec_legacy_equivalence_on_hooked_pages(self, data):
        """A hidden hook lets its page's bytes execute under every
        profile, but a fetch that crosses modes is still reported, at the
        rip where the reference interpreter marks it.  A lazy code page
        that no hook brought in logs a page-fault event at its first
        fetch, which shifts seqs, so reports are compared by address."""
        modes = st.sampled_from(["user", "kernel"])
        ops = []
        for _switch in range(data.draw(st.integers(0, 12))):
            ops.append(ModelOp("mode-switch", cpl=data.draw(modes)))
            page = data.draw(st.sampled_from((None,) + self.LAZY_PAGES))
            ops.append(ModelOp("nop", rip=None if page is None
                               else page * PAGE_SIZE + 4 * len(ops)))
        model = make_model(ops, cpl=data.draw(modes))
        hooked = data.draw(st.sets(st.sampled_from(
            (model.entry_page,) + self.LAZY_PAGES), min_size=1))

        guest = build_guest(model)
        for page in hooked:
            # A hook needs a present page: bring each lazy page in as
            # demand paging would (a no-op on the entry page).
            guest.inject_page_fault(page * PAGE_SIZE)
            guest.install_hidden_hook(page * PAGE_SIZE, b"\xcc" * 64)
        log = run(guest, model)
        found = [(log.events[seq].address, cpl)
                 for seq, cpl in transitions(log)]
        assert found == [(address, cpl) for _, address, cpl
                         in reference_transitions(model)]
        switches = [op.cpl for op in ops[::2]]
        assert len(found) == sum(
            mode != before for before, mode in zip([model.cpl] + switches,
                                                   switches))

    def test_switch_on_a_hooked_entry_page_is_reported(self):
        model = self._switch_model(["kernel"])
        guest = build_guest(model)
        guest.install_hidden_hook(model.entry_address, b"\xcc")
        assert transitions(run(guest, model)) == [(0, "kernel")]


class TestModelFiles:
    @pytest.mark.parametrize("data", [b"", "", " \n\n", iter([])],
                             ids=["bytes", "text", "blank", "stream"])
    def test_empty_model_file_is_named_at_line_1(self, data):
        with pytest.raises(ModelParseError, match=r"^line 1: empty model "
                           r"file \(missing header\)$"):
            parse_model(data)

    def test_round_trip(self):
        model = make_model(
            [
                ModelOp("mov-write", addr=0x3000, size=4, value=9,
                        cat="float-move"),
                ModelOp("call", callee="Fn", args=[1, 2, 3, 4, 5]),
                ModelOp("alloc", callee="malloc", size=0x40),
            ],
            entry_present=False,
        )
        data = serialize_model(model)
        parsed = parse_model(data)
        assert parsed == model

    def test_round_trip_keeps_the_module_range(self):
        model = make_model([ModelOp("mov-write", addr=0x3000, size=4, value=9)],
                           module_range=(0x401000, 0x401008))
        data = serialize_model(model)
        assert json.loads(data.splitlines()[0])["module_range"] == {
            "lo": "0x401000", "hi": "0x401008"}
        parsed = parse_model(data)
        assert parsed == model
        assert parsed.resolved_module_range() == (0x401000, 0x401008)

    def test_bad_json_names_line(self):
        from memtrace.guest import ModelParseError
        with pytest.raises(ModelParseError, match="line 2"):
            parse_model(b'{"entry_page": 1, "sp_init": "0x7ff000"}\nnope\n')

    @pytest.mark.parametrize("data", [
        b'{"entry_page": 1e400, "sp_init": "0x7ff000"}\n',
        b'{"entry_page": 1025, "sp_init": "0x7ff000", "tid": 1e400}\n',
        b'{"entry_page": 1025, "sp_init": "0x7ff000"}\n{"op": "mov-read"}\n',
        b'{"entry_page": 1025, "sp_init": "0x7ff000"}\n'
        b'{"op": "alloc", "callee": [1]}\n',
    ], ids=["infinite-entry-page", "infinite-tid", "read-without-addr",
            "list-callee"])
    def test_malformed_model_rejected(self, data):
        from memtrace.guest import ModelParseError
        with pytest.raises(ModelParseError):
            parse_model(data)

    @pytest.mark.parametrize("cpl, lines, message", [
        ("user", ['{"op": "mode-switch", "cpl": "root"}', '{"op": "nop"}'],
         "line 2: bad cpl 'root'"),
        ("user", ['{"op": "mode-switch", "cpl": "User"}'],
         "line 2: bad cpl 'User'"),
        ("user", ['{"op": "nop"}', '{"op": "mov-write", "addr": "0x3000",'
                  ' "cat": "bogus"}'],
         "line 3: unknown instruction category 'bogus'"),
        ("user", ['{"op": "mov-read", "addr": "0x3000", "sign": "maybe"}'],
         "line 2: unknown signedness 'maybe'"),
        ("root", ['{"op": "nop"}'], "line 1: bad header: bad cpl 'root'"),
        ("root", ['{"op": "push", "value": 1}'],
         "line 1: bad header: bad cpl 'root'"),
        (5, [], "line 1: bad header: bad cpl 5"),
        ("root", ['{"op": "bogus"}'], "line 1: bad header: bad cpl 'root'"),
    ], ids=["op-cpl", "op-cpl-case", "op-cat", "op-sign", "header-cpl-nop",
            "header-cpl-push", "header-cpl-int", "header-cpl-bad-op"])
    def test_unknown_cpl_cat_or_sign_names_its_line(self, cpl, lines, message):
        """A model must not simulate with a cpl, category or signedness
        a trace cannot hold: an op's cpl of "root" once simulated to a
        trace without its mode switch."""
        from memtrace.guest import ModelParseError
        header = {"entry_page": 1025, "sp_init": "0x7ff000", "cpl": cpl}
        data = "\n".join([json.dumps(header)] + lines) + "\n"
        with pytest.raises(ModelParseError) as info:
            parse_model(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("lines, message", [
        (["", "", '{"entry_page": 1025, "sp_init": "0x7ff000", "tid": "x"}',
          '{"op": "nop"}'], "line 3: bad header: 'x' is neither an integer "
         "nor a 0x-prefixed hex string"),
        (["", '{"sp_init": "0x7ff000"}'],
         "line 2: first line must carry entry_page"),
        (['{"entry_page": 1025, "sp_init": "0x7ff000"}', '["nop"]'],
         "line 2: an op line must be a JSON object"),
    ], ids=["header-after-blanks", "no-entry-page", "op-not-an-object"])
    def test_model_line_errors_name_their_line(self, lines, message):
        """The header is checked on its own line before any op line, as a
        trace's is."""
        with pytest.raises(ModelParseError) as info:
            parse_model("\n".join(lines) + "\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("op", ["mov-read", "mov-write"])
    @pytest.mark.parametrize("cat", [c for c in CATEGORIES
                                     if c not in ACCESS_CATEGORIES])
    def test_access_op_takes_a_data_category_only(self, op, cat):
        """A mov-read or mov-write logged as a push, a stack adjustment, a
        call or a capture event would feed that category's analysis."""
        from memtrace.guest import ModelParseError
        data = ('{"entry_page": 1025, "sp_init": "0x7ff000"}\n{"op": "nop"}\n'
                f'{{"op": "{op}", "addr": "0x3000", "cat": "{cat}"}}\n')
        with pytest.raises(ModelParseError) as info:
            parse_model(data)
        assert str(info.value) == (
            f"line 3: model op '{op}' cannot log category '{cat}'")

    def test_access_op_data_categories_simulate(self):
        ops = [ModelOp(op, addr=0x3000, size=8, cat=cat)
               for op in ("mov-write", "mov-read") for cat in ACCESS_CATEGORIES]
        log = run_model(make_model(ops))
        assert [e.instr.category for e in log.events] == list(
            ACCESS_CATEGORIES) * 2

    @pytest.mark.parametrize("value", ['"false"', "0", "1", "null", '"true"'])
    def test_entry_present_must_be_a_boolean(self, value):
        from memtrace.guest import ModelParseError
        data = ('{"entry_page": 1025, "sp_init": "0x7ff000", "entry_present": '
                + value + '}\n{"op": "nop"}\n')
        with pytest.raises(ModelParseError) as info:
            parse_model(data)
        assert str(info.value) == (
            "line 1: bad header: entry_present must be true or false, not "
            f"{json.loads(value)!r}")

    @pytest.mark.parametrize("present", [True, False])
    def test_entry_present_boolean_is_kept(self, present):
        data = ('{"entry_page": 1025, "sp_init": "0x7ff000", "entry_present": '
                + json.dumps(present) + '}\n')
        assert parse_model(data).entry_present is present

    def test_missing_header(self):
        from memtrace.guest import ModelParseError
        with pytest.raises(ModelParseError):
            parse_model(b'{"op": "nop"}\n')

    @pytest.mark.parametrize("field, op, value", [
        ("size", "mov-write", "x"),
        ("size", "mov-write", "16"),
        ("amount", "sub-sp", "8"),
        ("n_stack", "call", True),
        ("args", "call", ["x", 0]),
        ("args", "call", [1.5]),
    ])
    def test_bad_int_field_is_not_called_an_address(self, field, op, value):
        record = {"op": op, "addr": "0x3000", field: value}
        data = '{"entry_page": 1025, "sp_init": "0x7ff000"}\n' + json.dumps(
            record)
        shown = value[0] if field == "args" else value
        with pytest.raises(ModelParseError) as info:
            parse_model(data)
        assert str(info.value) == (f"line 2: {shown!r} is neither an integer "
                                   "nor a 0x-prefixed hex string")


class TestModelOpIsANamedTuple:
    FIELDS = ("op", "addr", "size", "value", "callee", "args", "n_stack",
              "amount", "cpl", "cat", "sign", "rip")

    def test_equals_the_tuple_of_its_fields(self):
        op = ModelOp("call", callee="Foo", args=[1, 2], n_stack=1)
        fields = ("call", None, None, None, "Foo", (1, 2), 1, None, None, None,
                  None, None)
        assert op == fields
        assert tuple(op) == fields
        assert len(op) == 12
        assert op._fields == self.FIELDS
        with pytest.raises(AttributeError):
            op.addr = 0x3000

    def test_replace_runs_the_checks(self):
        op = ModelOp("mov-write", addr=0x3000, size=4, value=7)
        with pytest.raises(ValueError, match="^unknown model op 'jump'$"):
            op._replace(op="jump")
        with pytest.raises(ValueError, match="^model op 'mov-write' needs an "
                           "addr$"):
            op._replace(addr=None)
        with pytest.raises(ValueError, match="cannot log category 'push'$"):
            op._replace(cat="push")
        with pytest.raises(ValueError, match="unexpected field names"):
            op._replace(bogus=1)
        assert op._replace(size=8).size == 8

    def test_make_runs_the_checks(self):
        fields = list(ModelOp("call", callee="Foo", args=[1]))
        assert type(ModelOp._make(fields)) is ModelOp
        for at, bad in [(0, "jump"), (2, "8"), (4, 5), (5, ["a"]), (5, 5),
                        (8, "root"), (9, "bogus"), (10, "maybe")]:
            wrong = fields[:at] + [bad] + fields[at + 1:]
            with pytest.raises(ValueError):
                ModelOp._make(wrong)
        with pytest.raises(TypeError):
            ModelOp._make(fields + [None])

    def test_every_constructor_stores_args_as_a_tuple(self):
        op = ModelOp("call", callee="Foo", args=[1, 2])
        assert type(op.args) is tuple
        for made in (op._replace(args=[3, 4]),
                     ModelOp._make(list(op)[:5] + [[3, 4]] + list(op)[6:])):
            assert made.args == (3, 4)
            assert type(made.args) is tuple

    def test_args_are_checked_as_given(self):
        """The error names the list the caller gave, not its tuple."""
        with pytest.raises(ValueError, match=r"^args \[1, 'x'\] must be a "
                           "list of integers$"):
            ModelOp("call", args=[1, "x"])

    @pytest.mark.parametrize("clone", [
        lambda op: pickle.loads(pickle.dumps(op)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, clone):
        for op in (ModelOp("mov-write", addr=0x3000, size=8, value=1 << 70),
                   ModelOp("call", callee="Foo", args=[1, 2, 3, 1 << 64],
                           n_stack=2)):
            got = clone(op)
            assert got == op
            assert type(got) is ModelOp
            assert type(got.args) is type(op.args)

    @pytest.mark.parametrize("clone", [
        lambda op: pickle.loads(pickle.dumps(op)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_cloning_runs_the_checks(self, clone):
        """A clone is rebuilt through the constructor, so a clone of a bad
        op, built without the checks, fails."""
        fields = tuple(ModelOp("mode-switch"))
        bad = tuple.__new__(ModelOp, fields[:8] + ("root",) + fields[9:])
        with pytest.raises(ValueError, match="^bad cpl 'root'$"):
            clone(bad)


# -- the bulk model reader against the line reader ------------------------

MODEL_HEADER = '{"entry_page": 1025, "sp_init": "0x7ff000", "tid": 2}'


def _model_outcome(data):
    """What parse_model makes of `data`: its model, or the line number and
    text of the ModelParseError it raised."""
    try:
        return parse_model(data)
    except ModelParseError as exc:
        return exc.lineno, str(exc)


def _random_model(rng: random.Random, n_ops: int, addr_end: int = 0x8000):
    """A model of `n_ops` random ops whose reads and writes start below
    `addr_end`. For a model that runs, pass the end of the mapped scratch
    range less 8: an 8-byte access that starts nearer that end crosses
    into an unmapped page, and the run stops with a SimulationError."""
    ops = []
    for _ in range(n_ops):
        choice = rng.randrange(8)
        if choice == 0:
            ops.append(ModelOp("mov-write", addr=rng.randrange(0x3000, addr_end),
                               size=rng.choice([1, 2, 4, 8]),
                               value=rng.randrange(1 << 70),
                               sign=rng.choice([None, "signed"])))
        elif choice == 1:
            ops.append(ModelOp("mov-read", addr=rng.randrange(0x3000, addr_end),
                               cat=rng.choice([None, "float-move"])))
        elif choice == 2:
            ops.append(ModelOp("call", callee=rng.choice(
                ["Fn", 'q"uo\\te', "n\u00efc\u00f6de", "\u2028", "tab\tnl\n"]),
                args=[rng.randrange(1 << 40) for _ in range(rng.randrange(7))],
                n_stack=rng.randrange(3)))
        elif choice == 3:
            ops.append(ModelOp("alloc", callee="malloc",
                               size=rng.randrange(1, 0x2000)))
        elif choice == 4:
            ops.append(ModelOp("sub-sp", amount=0x20, rip=0x401000))
        elif choice == 5:
            ops.append(ModelOp("mode-switch", cpl=rng.choice([None, "kernel"])))
        else:
            ops.append(ModelOp(rng.choice(["push", "ret", "nop"]),
                               value=rng.choice([None, 7])))
    return make_model(ops, tid=2)


# Values an op key may take: wrong types, an object, and lists holding
# lists or objects, the values that could hide a line join inside an op.
BAD_VALUES = ["x", "0x", 1.5, True, None, {}, {"a": 1}, [], [1, [2]],
              [{"a": 1}, {"b": 2}], ["0x1", 2], [None], "kernel", "call"]
OP_KEYS = ["op", "addr", "size", "value", "callee", "args", "n_stack",
           "amount", "cpl", "cat", "sign", "rip", "x", "extra"]
BREAKS = ["\u2028", "\u2029", "\x85", "}\u2028{", "}\u2029{", "}\x85{"]
WHITESPACE = [" ", "\t", "\x0c", "\x0b", "\xa0", " \t "]
MODEL_MUTATION = st.tuples(
    st.sampled_from(["value", "join", "split", "blank", "space", "crlf",
                     "bom", "break"]),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)


def _mutate_model(model, mutations) -> str:
    lines = serialize_model(model).decode().splitlines()
    records = [json.loads(line) for line in lines]
    for action, where, which in mutations:
        if action == "value" and len(records) > 1:
            record = records[1 + where % (len(records) - 1)]
            key = OP_KEYS[which // len(BAD_VALUES) % len(OP_KEYS)]
            record[key] = BAD_VALUES[which % len(BAD_VALUES)]
    lines = [json.dumps(r) for r in records]
    end = "\n"
    for action, where, which in mutations:
        at = where % len(lines)
        if action == "join" and at + 1 < len(lines):
            lines[at:at + 2] = [lines[at] + ", "[:which % 3] + lines[at + 1]]
        elif action == "split":
            # At "}, {" where there is one, else at some ", "; then two
            # later lines are joined, keeping the count of lines.
            cut = lines[at].find("}, {")
            cut = (cut + 1 if cut >= 0
                   else lines[at].find(", ", which % (len(lines[at]) + 1)))
            if cut >= 0:
                lines[at:at + 1] = [lines[at][:cut],
                                    lines[at][cut + 1:].lstrip(" ")]
                if which % 2 and at + 3 < len(lines):
                    lines[at + 2:at + 4] = [lines[at + 2] + ", "
                                            + lines[at + 3]]
        elif action == "blank":
            lines.insert(at, WHITESPACE[which % len(WHITESPACE)] * (which % 3))
        elif action == "space":
            pad = WHITESPACE[which % len(WHITESPACE)]
            lines[at] = pad + lines[at] if which % 2 else lines[at] + pad
        elif action == "crlf":
            end = "\r\n" if which % 2 else "\r"
        elif action == "bom":
            lines[at] = "\ufeff" + lines[at]
        elif action == "break":
            lines[at] = lines[at].replace(
                '{"op": ', '{"callee": "ab%scd", "op": ' % BREAKS[
                    which % len(BREAKS)], 1)
    return end.join(lines)


@given(seed=st.integers(0, 2**32), mutations=st.lists(MODEL_MUTATION,
                                                      max_size=4),
       chunk=st.sampled_from([1, 2, 3, trace._CHUNK_ROWS]))
@settings(max_examples=400, deadline=None)
def test_bulk_model_reader_matches_line_reader(seed, mutations, chunk):
    """parse_model on bytes and on text, read in bulk where the guards
    allow, equals parse_model on the same lines as a stream, which only
    the line reader reads: the model, or the line and text of the
    error."""
    rng = random.Random(seed)
    text = _mutate_model(_random_model(rng, rng.randrange(0, 12)), mutations)
    want = _model_outcome(iter(text.splitlines()))
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        assert _model_outcome(text.encode()) == want
        assert _model_outcome(text) == want


def _split_op(op_line: str) -> str:
    """`op_line` cut after its first "}," into two lines, with the next
    two ops on one line, so the body holds as many ops as lines."""
    cut = op_line.index("},") + 1
    return "\n".join([MODEL_HEADER, op_line[:cut], op_line[cut + 1:].lstrip(),
                      '{"op": "nop"}, {"op": "ret"}'])


@pytest.mark.parametrize("op_line", [
    '{"op": "call", "args": [{"a": 1}, {"b": 2}]}',
    '{"op": "call", "callee": [{"a": 1}, {"b": 2}]}',
    '{"op": "call", "x": [{"a": 1}, {"b": 2}]}',
    '{"op": "call", "args": [[{"a": 1}, {"b": 2}]]}',
    '{"op": "call", "callee": "ab},\u2028{cd"}',
    '{"op": "call", "callee": "ab},\x85{cd"}',
], ids=["args", "callee", "unknown-key", "nested", "u2028", "u0085"])
def test_op_split_over_two_lines_is_rejected(op_line):
    """Joined into one array, the body decodes to three ops from three
    lines; read line by line, line 2 is not JSON."""
    data = _split_op(op_line)
    want = _model_outcome(iter(data.splitlines()))
    assert want[0] == 2 and want[1].startswith("line 2: invalid JSON")
    assert _model_outcome(data.encode()) == want


@pytest.mark.parametrize("at", [0, 1, 5], ids=["first", "second", "sixth"])
def test_bad_op_in_the_second_chunk(at):
    """A fault past the first chunk of the default size is named at its
    line, as the line reader names it."""
    ops = ['{"op": "push", "value": "0x%x"}' % k
           for k in range(trace._CHUNK_ROWS + 8)]
    bad = trace._CHUNK_ROWS + at
    ops[bad] = '{"op": "push", "value": "0x1g"}'
    data = "\n".join([MODEL_HEADER] + ops).encode()
    assert _model_outcome(data) == (
        bad + 2, f"line {bad + 2}: invalid literal for int() with base 16: "
        "'0x1g'")


@given(seed=st.integers(0, 2**32), chunk=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_written_models_never_take_the_line_reader(seed, chunk):
    """Without this, a guard that is too strict would lose the bulk
    reader's speed and every output would still match."""
    rng = random.Random(seed)
    model = _random_model(rng, rng.randrange(0, 12))
    data = serialize_model(model)
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk), \
            mock.patch.object(guest_mod, "_record_to_op",
                              side_effect=AssertionError("an op line was "
                                                         "read by itself")):
        for form in (data, data.decode(), data.replace(b"\n", b"\r\n")):
            assert parse_model(form) == model


@given(seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_emitted_events_are_the_constructors_events(seed):
    """Every event the run builds, each without the checks, is the event
    the checking constructor builds."""
    rng = random.Random(seed)
    log = run_model(_random_model(rng, rng.randrange(0, 40),
                                  addr_end=SCRATCH[0][1] - 8))
    assert_built_as_constructed(log.events)


# mov ops of every size and access category, some of which log an access
# that AccessEvent's checks reject.
MOV_OPS = st.fixed_dictionaries(
    {"op": st.sampled_from(["mov-read", "mov-write"])},
    optional={"size": st.one_of(st.none(), st.integers(-2, 20)),
              "cat": st.one_of(st.none(), st.sampled_from(ACCESS_CATEGORIES)),
              "sign": st.one_of(st.none(), st.sampled_from(SIGN_VALUES))})


def _access_error(record):
    """The message of the ValueError that AccessEvent raises for the
    access a mov op of this record logs, or None."""
    kind = "read" if record["op"] == "mov-read" else "write"
    instr = InstrDescriptor(record.get("cat") or "int-move",
                            record.get("sign") or "n/a")
    try:
        AccessEvent(0, 0, "user", kind, 0x3000, record.get("size") or 8,
                    instr, MODULE_PAGE * PAGE_SIZE)
    except ValueError as exc:
        return str(exc)
    return None


@given(records=st.lists(MOV_OPS, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_an_op_stops_exactly_where_its_access_would(records):
    """A mov op is rejected with the message AccessEvent gives for the
    access it would log; every other op runs to events that the checking
    constructor builds."""
    ops = []
    for k, record in enumerate(records):
        fields = {key: value for key, value in record.items()
                  if value is not None}
        error = _access_error(record)
        if error is None:
            ops.append(ModelOp(addr=0x3000 + 0x20 * k, value=k, **fields))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                ModelOp(addr=0x3000 + 0x20 * k, value=k, **fields)
    assert_built_as_constructed(run_model(make_model(ops)).events)


@given(records=st.lists(MOV_OPS, min_size=1, max_size=8),
       chunk=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_model_readers_reject_a_bad_access_at_its_line(records, chunk):
    """Both model readers name the line of the first op whose access
    AccessEvent's checks reject, with their message."""
    lines = [MODEL_HEADER]
    for k, record in enumerate(records):
        lines.append(json.dumps({**record, "addr": hex(0x3000 + 0x20 * k)}))
    errors = [(k + 2, _access_error(r)) for k, r in enumerate(records)
              if _access_error(r) is not None]
    text = "\n".join(lines)
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        for data in (text, text.encode(), iter(lines)):
            outcome = _model_outcome(data)
            if errors:
                lineno, message = errors[0]
                assert outcome == (lineno, f"line {lineno}: {message}")
            else:
                assert len(outcome.ops) == len(records)


# Number fields as a model file may spell them: exact ints, hex strings
# and spellings int(s, 16) takes but the readers must not (no "0x" in
# front, upper case, blanks), bools, floats and nulls.
NUMBERS = st.one_of(
    st.integers(-3, 1 << 70),
    st.integers(0, 1 << 70).map(hex),
    st.sampled_from(["0x", "1f", "0X1F", " 0x1", "0x1 ", "0x_1", "-0x1",
                     "0x1g"]),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
)
OP_RECORDS = st.fixed_dictionaries(
    {"op": st.one_of(st.sampled_from(MODEL_OPS), st.none())},
    optional={**dict.fromkeys(guest_mod._OP_INT_KEYS, NUMBERS),
              "args": st.one_of(st.none(), st.lists(NUMBERS, max_size=6)),
              "callee": st.sampled_from(["Fn", "malloc"]),
              "cat": st.sampled_from(["int-move", "float-move"]),
              "sign": st.sampled_from(["signed", "n/a"])})


def _typed_outcome(data):
    """_model_outcome, with the type of every op field and argument: an
    equal model with a True where the other holds a 1 is another model."""
    outcome = _model_outcome(data)
    if isinstance(outcome, ProgramModel):
        return outcome, [(tuple(map(type, op)), tuple(map(type, op.args or ())))
                         for op in outcome.ops]
    return outcome


@given(records=st.lists(OP_RECORDS, min_size=1, max_size=12),
       chunk=st.sampled_from([1, 2, 3, trace._CHUNK_ROWS]))
@settings(max_examples=400, deadline=None)
def test_bulk_model_reader_matches_line_reader_on_number_fields(records,
                                                                 chunk):
    """The column-wise bulk reader gives the ops the line reader gives,
    field types included, or the same error, whatever mix of ints, hex
    strings, bools, floats and nulls the number fields hold."""
    text = "\n".join([MODEL_HEADER] + [json.dumps(r) for r in records])
    want = _typed_outcome(iter(text.splitlines()))
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        assert _typed_outcome(text.encode()) == want
        assert _typed_outcome(text) == want


def test_mixed_int_and_hex_fields_take_the_bulk_reader():
    """A column may mix exact ints, hex strings and nulls."""
    lines = [MODEL_HEADER,
             '{"op": "mov-write", "addr": 12288, "size": "0x4", "value": 7}',
             '{"op": "mov-write", "addr": "0x3008", "size": 8, "value": null}',
             '{"op": "call", "args": [1, 2], "n_stack": "0x2", "rip": 4198400}',
             '{"op": "sub-sp", "amount": "0x40", "rip": null}']
    with mock.patch.object(guest_mod, "_record_to_op",
                           side_effect=AssertionError("an op line was read "
                                                      "by itself")):
        model = parse_model("\n".join(lines))
    assert model.ops == [
        ModelOp("mov-write", addr=0x3000, size=4, value=7),
        ModelOp("mov-write", addr=0x3008, size=8),
        ModelOp("call", args=(1, 2), n_stack=2, rip=0x401000),
        ModelOp("sub-sp", amount=0x40)]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("by_line", [False, True],
                         ids=["columns", "line-by-line"])
@pytest.mark.parametrize("good, bad, message", [
    ('{"op": "push", "value": 8}', '{"op": "push", "value": -1}',
     "value -1 is negative"),
    ('{"op": "sub-sp", "amount": 8}', '{"op": "sub-sp", "amount": -8}',
     "amount -8 is negative"),
    ('{"op": "call", "args": [1]}', '{"op": "call", "args": [1, 2, 3, 4, -5]}',
     "argument -5 is negative"),
], ids=["value", "amount", "stack-arg"])
def test_negative_number_is_named_at_its_line(chunk, by_line, good, bad,
                                              message):
    """Line 5 holds a negative number, after ops of its own kind whose
    checks already ran.  The column checks decline its chunk, so the
    line is read by itself and named; a leading blank declines the chunk
    before the column checks."""
    ops = [good] * 3 + [(" " if by_line else "") + bad, good, '{"op": "nop"}']
    data = "\n".join([MODEL_HEADER] + ops)
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        for form in (data, data.encode(), iter(data.splitlines())):
            assert _model_outcome(form) == (5, f"line 5: {message}")


@pytest.mark.parametrize("chunk", [1, 2, trace._CHUNK_ROWS])
def test_chunk_without_an_op_is_named_at_its_line(chunk):
    """A chunk whose records hold no op key at all is declined too."""
    data = "\n".join([MODEL_HEADER, '{"op": "nop"}', '{"addr": "0x3000"}',
                      '{"size": 8}'])
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        assert _model_outcome(data) == (3, "line 3: missing op")


@pytest.mark.parametrize("chunk", [7, trace._CHUNK_ROWS])
def test_one_op_check_per_bulk_reader_key(monkeypatch, chunk):
    """The bulk model reader runs ModelOp's checks on one op of each (op,
    addr or not, cpl, cat, sign, size, n_stack) in the whole text, over
    every chunk: the other ops differ from it only in what the checks do
    not read, or in the types of callee and args, which it checks by
    column."""
    model = _random_model(random.Random(5), 600)
    data = serialize_model(model)
    checked = []
    post_init = ModelOp.__post_init__

    def counting(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(ModelOp, "__post_init__", counting)
    with mock.patch.object(trace, "_CHUNK_ROWS", chunk):
        assert parse_model(data) == model

    def key(op):
        return (op.op, op.addr is None, op.cpl, op.cat, op.sign, op.size,
                op.n_stack)

    keys = set(map(key, model.ops))
    # Each of the model's 69 allocs has a size of its own, and so a key.
    assert len(model.ops) > 5 * len(keys)
    assert len(checked) == len(keys)
    assert set(map(key, checked)) == keys

import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace import signature
from memtrace.guest import ModelOp
from memtrace.recon import AllocationRecord, collect_bases
from memtrace.signature import (
    DEFAULT_MATCH_THRESHOLD,
    DEFAULT_TAU,
    NotSimilarError,
    diff_modified,
    extract_pattern,
    lcmap,
    near,
    read_signature,
    similarity,
    write_signature,
)
from memtrace.trace import (
    AccessEvent,
    AddressPattern,
    InstrDescriptor,
    TraceLog,
    parse_trace,
    serialize_trace,
)

from helpers import (
    ALLOCATION_RECORDS,
    brute_lcmap,
    first_owner,
    make_model,
    pathological_pair,
    probe_addresses,
    random_pattern_pair,
    reference_diff,
    reference_lcmap,
    run_model,
)


@st.composite
def lcmap_cases(draw):
    """(p, q, tau) with empty, dense (span <= tau), sparse, duplicate,
    negative and >= 2^64 offsets, and near-runs of p planted in q."""
    tau = draw(st.one_of(st.just(0), st.integers(-3, -1), st.integers(1, 200)))
    base = draw(st.sampled_from([0, -(1 << 20), (1 << 64) - 64, 1 << 70]))
    values = draw(st.sampled_from([
        st.integers(0, max(tau, 0)),  # dense: every pair is near
        st.integers(0, 1 << 40),  # sparse
        st.integers(0, 3 * max(tau, 1)),
        st.sampled_from([0, 8, 8 + max(tau, 0), 400]),  # duplicates
    ]))
    offsets = st.lists(values.map(lambda x: base + x), max_size=40)
    p = draw(offsets)
    q = draw(offsets)
    if p and draw(st.booleans()):
        start = draw(st.integers(0, len(p) - 1))
        stop = draw(st.integers(start, len(p)))
        jitter = st.integers(-max(tau, 0), max(tau, 0))
        run = [x + draw(jitter) for x in p[start:stop]]
        at = draw(st.integers(0, len(q)))
        q = q[:at] + run + q[at:]
    return p, q, tau


@st.composite
def diff_cases(draw):
    """(p, q, tau) for the diff: dense (every pair near), duplicate-heavy,
    pathological (every k-th offset of a copy shifted by 5 tau), nested,
    edited and random pairs, with either side possibly empty.  A nested
    pair alternates shared runs of mixed lengths with stretches found on
    one side only, so a leftover box splits again and its smaller child
    can hold a run of its own.  An edited pair, at tau 0, is p over two
    to four values and p after one to three inserts, deletes or
    substitutions: its repeated values leave many ranges with two equal
    sides between matched runs, which the reference matches in full
    where they are near cell by cell (diff_modified cannot meet such a
    range after the first split)."""
    tau = draw(st.sampled_from([-1, 0, 4, 100]))
    width = max(tau, 1)
    shape = draw(st.sampled_from(["dense", "duplicates", "pathological",
                                  "nested", "edited", "random"]))
    if shape == "dense":
        values = st.lists(st.integers(0, max(tau, 0)), max_size=30)
        p, q = draw(values), draw(values)
    elif shape == "duplicates":
        values = st.lists(st.sampled_from([0, 8, 8 + width, 400]),
                          max_size=30)
        p, q = draw(values), draw(values)
    elif shape == "pathological":
        k = draw(st.integers(2, 5))
        p = [8 * i for i in range(draw(st.integers(0, 40)))]
        q = [x + 5 * width if i % k == k - 1 else x for i, x in enumerate(p)]
        q = q[draw(st.integers(0, 3)):]
    elif shape == "nested":
        # Offsets 10 tau apart are never near; one-sided ones lie far
        # above every shared one.
        fresh = itertools.count(1)
        step = 10 * width
        p, q = [], []
        for _ in range(draw(st.integers(3, 8))):
            for side in (p, q):
                side += [(1 << 30) + step * next(fresh)
                         for _ in range(draw(st.integers(0, 3)))]
            shared = [step * next(fresh) for _ in range(draw(st.integers(2, 8)))]
            p += shared
            q += shared
    elif shape == "edited":
        tau = 0
        alphabet = st.integers(0, draw(st.integers(1, 3)))
        p = draw(st.lists(alphabet, max_size=30))
        q = list(p)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(q)))
            edit = draw(st.sampled_from(["insert", "delete", "substitute"]))
            if edit == "insert":
                q.insert(at, draw(alphabet))
            elif at < len(q) and edit == "delete":
                del q[at]
            elif at < len(q):
                q[at] = draw(alphabet)
    else:
        p, q = random_pattern_pair(random.Random(draw(st.integers(0, 2**32))))
    empty = draw(st.sampled_from([None, None, None, "p", "q"]))
    if empty == "p":
        p = []
    elif empty == "q":
        q = []
    return p, q, tau


class TestNear:
    def test_examples(self):
        assert near(0, 100, 100)
        assert not near(0, 101, 100)
        assert near(50, 50, 0)
        assert not near(50, 51, 0)

    @given(st.integers(0, 1 << 20), st.integers(0, 1 << 20),
           st.integers(0, 1 << 10))
    @settings(max_examples=200, deadline=None)
    def test_oracle(self, a, b, tau):
        assert near(a, b, tau) == (abs(a - b) <= tau)
        assert near(a, b, tau) == near(b, a, tau)


class TestLcmap:
    def test_self_match(self):
        p = [0, 8, 16, 24]
        result = lcmap(p, p, tau=0)
        assert result.length == 4
        assert result.end_index == 3
        assert result.pattern == (0, 8, 16, 24)

    def test_single_divergent_element(self):
        p = [0, 8, 16, 120, 128]
        q = [0, 8, 16, 400, 128]
        result = lcmap(p, q, tau=4)
        assert result.length == 3
        assert result.pattern == (0, 8, 16)
        assert result.end_index == 2

    def test_default_tau_bridges_small_shifts(self):
        p = [0, 8, 16, 120, 128]
        q = [0, 8, 16, 400, 128]
        # With the default threshold of 100 the 120/400 gap still breaks
        # the run; narrow the divergence and it heals.
        assert lcmap(p, q).length == 3
        assert lcmap(p, [0, 8, 16, 200, 128]).length == 5

    def test_empty_patterns(self):
        assert lcmap([], [1, 2]).length == 0
        assert lcmap([1, 2], []).end_index == -1
        assert lcmap([], []).pattern == ()

    def test_no_common_run(self):
        result = lcmap([0, 1000], [5000, 9000], tau=100)
        assert result.length == 0
        assert result.end_index == -1

    def test_negative_tau_matches_nothing(self):
        result = lcmap([0, 5, 10], [0, 5, 10], -1)
        assert (result.length, result.end_index, result.end_index_prime,
                result.pattern, result.ratio) == (0, -1, -1, (), 0.0)

    @given(lcmap_cases(), st.booleans(), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_dp(self, case, wrap_p, wrap_q):
        p, q, tau = case
        wrap = lambda xs: AddressPattern(offsets=tuple(xs), base=0, sizes=None)
        got = lcmap(wrap(p) if wrap_p else p, wrap(q) if wrap_q else q, tau)
        length, end_i, end_j = reference_lcmap(p, q, tau)
        assert (got.length, got.end_index, got.end_index_prime) == \
            (length, end_i, end_j)
        assert got.pattern == tuple(p[end_i - length + 1:end_i + 1])
        assert got.ratio == (length / min(len(p), len(q)) if p and q else 0.0)
        assert got.tau == tau

    def test_tie_breaks_to_earliest_end(self):
        # The run [5, 6] appears twice in P; the earlier occurrence wins.
        result = lcmap([5, 6, 99, 5, 6], [5, 6], tau=0)
        assert result.length == 2
        assert result.end_index == 1

    def test_brute_force_oracle_random(self):
        rng = random.Random(13)
        for trial in range(1050):
            tau = (0, 4, 100)[trial % 3]
            p, q = random_pattern_pair(rng)
            got = lcmap(p, q, tau)
            want = brute_lcmap(p, q, tau)
            assert (got.length, got.end_index, got.end_index_prime) == want, \
                (p, q, tau)
            assert got.ratio == (want[0] / min(len(p), len(q)) if p and q
                                 else 0.0)
            if got.length:
                assert got.pattern == tuple(
                    p[got.end_index - got.length + 1:got.end_index + 1])

    @given(st.lists(st.integers(0, 1 << 16), max_size=30),
           st.integers(0, 200))
    @settings(max_examples=150, deadline=None)
    def test_reflexivity(self, p, tau):
        result = lcmap(p, p, tau)
        assert result.length == len(p)

    @given(st.lists(st.integers(0, 1 << 12), max_size=20),
           st.lists(st.integers(0, 1 << 12), max_size=20),
           st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_tau_monotonicity(self, p, q, tau):
        assert lcmap(p, q, tau).length <= lcmap(p, q, tau + 50).length

    @given(st.lists(st.integers(0, 1 << 12), max_size=20),
           st.lists(st.integers(0, 1 << 12), max_size=20),
           st.integers(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_length_symmetry(self, p, q, tau):
        assert lcmap(p, q, tau).length == lcmap(q, p, tau).length

    @given(st.lists(st.integers(0, 50), max_size=25),
           st.lists(st.integers(0, 50), max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_tau_zero_equals_exact_substring(self, p, q):
        # At tau 0 the matcher degenerates to the textbook longest common
        # substring; check against a direct set-based computation.
        subs = {
            tuple(p[i:j])
            for i in range(len(p)) for j in range(i + 1, len(p) + 1)
        }
        best = 0
        for i in range(len(q)):
            for j in range(i + 1, len(q) + 1):
                if tuple(q[i:j]) in subs:
                    best = max(best, j - i)
        assert lcmap(p, q, 0).length == best


class TestSimilarity:
    def test_identical_is_one(self):
        assert similarity([0, 8, 16], [0, 8, 16], 0) == 1.0

    def test_embedded_short_pattern_scores_one(self):
        assert similarity([8, 16], [0, 8, 16, 24, 900], 0) == 1.0

    def test_empty_is_zero(self):
        assert similarity([], [1, 2]) == 0.0

    def test_normalized_by_shorter(self):
        # 3 of 4 elements of the shorter pattern match contiguously.
        assert similarity([0, 8, 16, 999], [0, 8, 16, 5000, 7000], 0) == 0.75

    @given(st.lists(st.integers(0, 1 << 12), max_size=20),
           st.lists(st.integers(0, 1 << 12), max_size=20),
           st.integers(0, 200))
    @settings(max_examples=150, deadline=None)
    def test_bounded_zero_one(self, p, q, tau):
        assert 0.0 <= similarity(p, q, tau) <= 1.0


def make_event(seq, address, size=4, kind="write", rip=0x401100):
    return AccessEvent(
        seq=seq, thread_id=0, cpl="user", kind=kind, address=address,
        operand_size=size, instr=InstrDescriptor(category="int-move"),
        rip=rip,
    )


MODULE_RANGE = (0x401000, 0x402000)


class TestExtractPattern:
    def test_single_allocation_relative(self):
        log = TraceLog(
            events=tuple(make_event(i, 0x9000 + off)
                         for i, off in enumerate([0x10, 0x0, 0x24])),
            module_range=MODULE_RANGE,
        )
        bases = [AllocationRecord(base=0x9000, size=0x100, source="heap-hook")]
        pattern = extract_pattern(log, bases)
        assert pattern.offsets == (0x10, 0x0, 0x24)
        assert pattern.base == 0x9000

    def test_no_bases_minimum_reference(self):
        log = TraceLog(
            events=tuple(make_event(i, a)
                         for i, a in enumerate([0x5010, 0x5000, 0x5008])),
            module_range=MODULE_RANGE,
        )
        pattern = extract_pattern(log)
        assert pattern.base == 0x5000
        assert pattern.offsets == (0x10, 0x0, 0x8)

    def test_out_of_module_rip_filtered(self):
        log = TraceLog(
            events=(make_event(0, 0x5000),
                    make_event(1, 0x5004, rip=0x77001000)),
            module_range=MODULE_RANGE,
        )
        assert len(extract_pattern(log).offsets) == 1

    def test_empty_module_range_takes_every_access(self):
        """A header whose module range is empty (lo == hi) filters by no
        module: every read and write is the program's, from any rip."""
        log = TraceLog(
            events=(make_event(0, 0x5000), make_event(1, 0x5004, rip=0x10),
                    make_event(2, 0x5008, kind="read", rip=0x77001000)),
            module_range=(0x401000, 0x401000),
        )
        assert extract_pattern(log).offsets == (0x0, 0x4, 0x8)

    def test_injected_page_faults_excluded(self):
        """The same program signs alike whether or not the capture had
        to fault its pages in."""
        ops = [ModelOp("alloc", callee="malloc", size=0x40),
               ModelOp("mov-write", addr=0x9000, size=8, value=1),
               ModelOp("mov-read", addr=0x9008, size=8)]
        faults, offsets = [], []
        for mapped in ([], [(0x9000, 0xa000)]):
            log = parse_trace(serialize_trace(run_model(
                make_model(ops, mapped=mapped))))
            faults.append([e.instr.category for e in log.events].count(
                "page-fault"))
            offsets.append(extract_pattern(log, collect_bases(log)).offsets)
        assert faults == [1, 0]
        assert offsets == [(0, 8), (0, 8)]

    def test_execute_events_excluded(self):
        log = TraceLog(
            events=(
                AccessEvent(seq=0, thread_id=0, cpl="user", kind="execute",
                            address=0x401100, operand_size=1,
                            instr=InstrDescriptor(category="other"),
                            rip=0x401100),
                make_event(1, 0x5000),
            ),
            module_range=MODULE_RANGE,
        )
        assert extract_pattern(log).offsets == (0,)

    def test_mixed_owned_and_leftover_elementwise(self):
        rng = random.Random(17)
        base = 0x9000
        allocs = [AllocationRecord(base=base, size=0x1000,
                                   source="heap-hook")]
        addresses = []
        for _ in range(40):
            if rng.random() < 0.5:
                addresses.append(base + rng.randrange(0x1000))
            else:
                addresses.append(0x20000 + rng.randrange(0x1000))
        log = TraceLog(
            events=tuple(make_event(i, a) for i, a in enumerate(addresses)),
            module_range=MODULE_RANGE,
        )
        pattern = extract_pattern(log, allocs)
        floor = min(a for a in addresses if a >= 0x20000)
        want = [
            a - base if a < 0x20000 else a - floor
            for a in addresses
        ]
        assert list(pattern.offsets) == want

    @given(ALLOCATION_RECORDS, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_owner_is_first_containing_base(self, bases, rng):
        # An event's address is never negative.
        addresses = [a for a in probe_addresses(bases, rng) if a >= 0]
        log = TraceLog(
            events=tuple(make_event(i, a) for i, a in enumerate(addresses)),
            module_range=MODULE_RANGE,
        )
        owners = [first_owner(bases, a) for a in addresses]
        leftovers = [a for a, b in zip(addresses, owners) if b is None]
        floor = min(leftovers, default=0)
        want = tuple(a - (floor if b is None else b.base)
                     for a, b in zip(addresses, owners))
        assert extract_pattern(log, bases).offsets == want

    def test_empty_log(self):
        pattern = extract_pattern(TraceLog(module_range=MODULE_RANGE))
        assert pattern.offsets == ()

    def test_sizes_carried(self):
        log = TraceLog(events=(make_event(0, 0x5000, size=8),),
                       module_range=MODULE_RANGE)
        assert extract_pattern(log).sizes == (8,)


class TestDiffModified:
    def test_identical_single_matched_region(self):
        p = [0, 8, 16, 24, 32]
        report = diff_modified(p, p, tau=0)
        assert report.matched == [((0, 5), (0, 5))]
        assert report.unmatched == []

    def test_insertion_localized(self):
        p = [0, 8, 16, 24, 32, 40]
        q = [0, 8, 16, 9000, 24, 32, 40]
        report = diff_modified(p, q, tau=0, threshold=0.5)
        assert len(report.matched) == 2
        assert report.unmatched == [((3, 3), (3, 4))]

    def test_deletion_localized(self):
        p = [0, 8, 16, 9000, 24, 32, 40]
        q = [0, 8, 16, 24, 32, 40]
        report = diff_modified(p, q, tau=0, threshold=0.5)
        assert report.unmatched == [((3, 4), (3, 3))]

    def test_modification_in_middle(self):
        p = [0, 8, 16, 24, 32, 40, 48, 56]
        q = [0, 8, 16, 24, 7000, 40, 48, 56]
        report = diff_modified(p, q, tau=0, threshold=0.5)
        assert report.unmatched == [((4, 5), (4, 5))]

    def test_dissimilar_raises(self):
        with pytest.raises(NotSimilarError) as info:
            diff_modified([0, 1, 2], [9000, 9500, 9900], tau=0)
        assert info.value.ratio == 0.0
        assert info.value.threshold == DEFAULT_MATCH_THRESHOLD

    @given(st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, seed):
        rng = random.Random(seed)
        p = [8 * k for k in range(rng.randrange(4, 20))]
        q = list(p)
        if rng.random() < 0.7 and len(q) > 5:
            q[rng.randrange(1, len(q) - 1)] = 10 ** 6
        try:
            report = diff_modified(p, q, tau=0, threshold=0.5)
        except NotSimilarError:
            return
        covered_p = []
        for (a, b), _ in report.matched + report.unmatched:
            covered_p.extend(range(a, b))
        covered_q = []
        for _, (a, b) in report.matched + report.unmatched:
            covered_q.extend(range(a, b))
        assert sorted(covered_p) == list(range(len(p)))
        assert sorted(covered_q) == list(range(len(q)))
        for (a, b), (c, d) in report.matched:
            assert b - a == d - c
            for i, j in zip(range(a, b), range(c, d)):
                assert p[i] == q[j]

    @given(diff_cases(), st.sampled_from([0, 0.5, 0.8]))
    @settings(max_examples=480, deadline=None)
    def test_matches_recursive_reference(self, case, threshold):
        p, q, tau = case
        try:
            want = reference_diff(p, q, tau, threshold)
        except NotSimilarError as exc:
            with pytest.raises(NotSimilarError) as info:
                diff_modified(p, q, tau, threshold)
            assert info.value.ratio == exc.ratio
            return
        assert diff_modified(p, q, tau, threshold) == want

    def test_smaller_child_takes_its_run_from_the_range_heap(self):
        # After [0..5] and then [10, 11, 12] match, the box before the
        # second match is the smaller child; its run [20, 21] reaches it
        # only through _range_heap.
        p = list(range(6)) + [100, 20, 21, 300, 10, 11, 12] + list(
            range(7000, 7010))
        q = list(range(6)) + [101, 20, 21, 301, 10, 11, 12] + list(
            range(9000, 9010))
        report = diff_modified(p, q, tau=0, threshold=0)
        assert ((7, 9), (7, 9)) in report.matched
        assert report == reference_diff(p, q, tau=0, threshold=0)

    def test_many_runs_need_no_recursion_depth(self):
        p, q = pathological_pair(150)
        want = reference_diff(p, q, tau=100, threshold=0.0)
        assert len(want.matched) == 50
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            report = diff_modified(p, q, tau=100, threshold=0.0)
        finally:
            sys.setrecursionlimit(limit)
        assert report == want

    def test_three_sweeps_per_diff(self, monkeypatch):
        # The whole pair once, then each leftover box once: every later
        # range is answered from the runs those sweeps collect.
        rows = []
        kernel = signature._sweep

        def counting_sweep(first, second, tau, collect=False):
            rows.append(len(first))
            return kernel(first, second, tau, collect)

        monkeypatch.setattr(signature, "_sweep", counting_sweep)
        p, q = pathological_pair(600)
        report = diff_modified(p, q, tau=100, threshold=0.0)
        assert len(report.matched) == 200
        assert len(rows) <= 3
        assert sum(rows) <= 2 * len(p)

    def test_clip_steps_grow_linearly(self, monkeypatch):
        steps = [0]
        clip = signature._clip

        def counting_clip(*args):
            steps[0] += 1
            return clip(*args)

        monkeypatch.setattr(signature, "_clip", counting_clip)
        counts = []
        for n in (1200, 2400, 4800):
            steps[0] = 0
            diff_modified(*pathological_pair(n), tau=100, threshold=0.0)
            counts.append(steps[0])
        assert counts[0] > 0
        assert counts[1] <= 2.5 * counts[0]
        assert counts[2] <= 2.5 * counts[1]


class TestSignatureFiles:
    def test_round_trip(self):
        pattern = AddressPattern(offsets=(0, 8, 16), base=0x9000,
                                 sizes=(4, 4, 8))
        data = write_signature(pattern, tau=42)
        parsed, tau = read_signature(data)
        assert parsed == pattern
        assert tau == 42

    def test_sizes_optional(self):
        pattern = AddressPattern(offsets=(0, 8), base=0, sizes=None)
        parsed, tau = read_signature(write_signature(pattern))
        assert parsed.sizes is None
        assert tau == DEFAULT_TAU

    @pytest.mark.parametrize("base", [True, 2.5, "9000"])
    def test_base_must_be_int_or_hex(self, base):
        record = {"base": base, "tau_default": 7, "offsets": [1]}
        with pytest.raises(ValueError):
            read_signature(json.dumps(record))

    @pytest.mark.parametrize("key", ["offsets", "sizes"])
    @pytest.mark.parametrize("bad", [True, 2.0, "8", [8]])
    def test_offsets_and_sizes_must_be_int_or_hex(self, key, bad):
        record = {"base": 0, "offsets": [0, 8, 16], "sizes": [4, 4, 8]}
        record[key] = [record[key][0], bad, record[key][2]]
        with pytest.raises(ValueError):
            read_signature(json.dumps(record))

    @pytest.mark.parametrize("record", [{"base": 0}, {"offsets": [0, 8]}],
                             ids=["no-offsets", "no-base"])
    def test_offsets_and_base_are_required(self, record):
        with pytest.raises(ValueError,
                           match="^a signature needs offsets and base$"):
            read_signature(json.dumps(record))

    def test_hex_offsets_mix_with_ints(self):
        data = '{"base": 0, "offsets": [0, "0x8", 16], "sizes": ["0x4", 4, 8]}'
        parsed, _ = read_signature(data)
        assert parsed.offsets == (0, 8, 16)
        assert parsed.sizes == (4, 4, 8)

    def test_unknown_keys_ignored(self):
        data = b'{"base": "0x0", "tau_default": 7, "offsets": [1], "x": 2}'
        parsed, tau = read_signature(data)
        assert parsed.offsets == (1,)
        assert tau == 7

"""Memory-address-pattern signatures: extraction, matching, diffing.

The core matcher finds the longest contiguous run of two offset
sequences whose elements pairwise differ by at most an alignment
threshold tau, by dynamic programming.  The DP is bit-parallel: each
row updates every column at once, with the run lengths held as binary
digit slices in Python ints, so an m x n match costs O(m log L)
big-int operations rather than m n interpreted steps: O(log L) per row
for the slice update, and for the test for a new longest run O(1) after
a row that raised it, or O(log L) otherwise.  Every other
question about two patterns is answered from that one sweep: the
normalized similarity score, and a greedy diff that splits ranges off a
worklist to localize source-level modifications between near-identical
patterns.  The diff sweeps the pair once for its first split and each
leftover box once more, collecting the maximal diagonal near-runs, and
answers every later range from those runs, clipped to it.  A pattern
is taken from a trace's address and size columns, at the indices of
the program's own accesses, with no event built; each address is
attributed to an allocation through recon's OwnerIndex, one bisection
per access.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .trace import (AccessEvent, AddressPattern, TraceLog, _decode, _encode,
                    _Field, _NAT, _PATTERN_FIELDS, _program_accesses)
from .recon import AllocationRecord, OwnerIndex

DEFAULT_TAU = 100
DEFAULT_MATCH_THRESHOLD = 0.8
# The shortest diff run worth calling a match.  _sweep collects only
# runs of two or more cells, so it cannot be lowered to 1.
DEFAULT_MIN_RUN = 2


class NotSimilarError(ValueError):
    """diff_modified was asked to diff patterns below the match threshold."""

    def __init__(self, ratio: float, threshold: float):
        super().__init__(
            f"patterns are not similar (ratio {ratio:.3f} < threshold {threshold:.3f})"
        )
        self.ratio = ratio
        self.threshold = threshold


@dataclass(frozen=True)
class LcmapResult:
    """Longest common run of two patterns under the near(tau) predicate."""

    pattern: tuple[int, ...]
    length: int
    end_index: int  # 0-based index in P of the last matched element; -1 if none
    tau: int
    end_index_prime: int  # the same index in P'; -1 if none
    ratio: float  # length over the shorter pattern length; 0.0 for empty input


@dataclass
class DiffReport:
    """Matched and unmatched index ranges (half-open) for both patterns."""

    matched: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)
    unmatched: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)


def near(a: int, b: int, tau: int) -> bool:
    """Offsets are aligned when they differ by at most tau."""
    return abs(a - b) <= tau


def _offsets(pattern) -> tuple[int, ...]:
    if isinstance(pattern, AddressPattern):
        return pattern.offsets
    return tuple(pattern)


def _sweep(first: Sequence[int], second: Sequence[int], tau: int,
           collect: bool = False):
    """The LCMAP dynamic program over first x second, one row at a time.

    Returns (length, end_i, end_j, runs): the longest run and the
    row-major earliest cell where it ends, (0, -1, -1) when no pair is
    near, and, when collect is set, every maximal diagonal near-run of
    at least two cells (DEFAULT_MIN_RUN) as (start_i, start_j, length)
    in row-end order.  This is the only LCMAP dynamic program: lcmap
    wraps it without collecting, and diff_modified collects from it.

    D[i][j] extends D[i-1][j-1] by one when near(P[i-1], P'[j-1], tau)
    and resets to zero otherwise.  Row i of D is computed for every
    column at once, on Python ints used as bit vectors (bit j is column
    j), after Allison and Dix's bit-string LCS and Myers' bit-vector
    matching.  Row i's near set is the XOR of two prefix-OR masks over P'
    in sorted order, found by two bisections.  The run lengths are kept
    as binary digit slices: bit j of digits[k] is bit k of D[i][j].  A
    row shifts every slice by one column, clears the columns that are not
    near, and adds one to the near columns by a ripple carry.  A run
    grows by at most one per row, so a new maximum is best + 1, reached
    only in a column whose diagonal predecessor held best.  After a row
    that raised the best, the columns that hold it are that row's hits,
    kept as `top`, and the next row's hits are `top` shifted by one
    column and masked by the near set; after any other row, one
    slice-equality test finds them.  The first row to reach best + 1,
    at the lowest set bit of its hits, is the row-major earliest cell.
    The run at (i - 1, j) ends unless (i, j + 1) is near, and is at least
    two long when (i - 2, j - 1) is near too, so the ended runs worth
    decoding are a few masks away; their lengths are read from the slices
    before row i overwrites them.  Cost per row, in operations on n-bit ints: O(log L) for the
    slice update for the longest run L, plus O(1) for the best test
    after a row that raised the best, or O(log L) otherwise; in all
    O(m log L), about m n log L / 64 word operations, plus n + 1 prefix
    masks of n bits and O(log L) per collected run.  A negative tau
    makes no pair near.
    """
    m, n = len(first), len(second)
    best_len = 0
    best_i = best_j = -1
    runs: list[tuple[int, int, int]] = []
    if tau >= 0 and m and n:
        order = sorted(range(n), key=second.__getitem__)
        values = [second[j] for j in order]
        prefix = [0]  # prefix[k]: the columns of the k smallest values
        for j in order:
            prefix.append(prefix[-1] | 1 << j)
        digits: list[int] = []  # digits[k]: bit k of every column's run
        row = above = 0  # the near sets of rows i - 1 and i - 2
        top = 0  # the columns at best_len, if row i - 1 raised it
        for i, a in enumerate(first):
            near_mask = (prefix[bisect_right(values, a + tau)]
                         ^ prefix[bisect_left(values, a - tau)])
            if collect:
                ended = row & (above << 1) & ~(near_mask >> 1)
                if ended:
                    _collect(runs, digits, ended, i - 1)
                above, row = row, near_mask
            carry = near_mask
            for k, digit in enumerate(digits):
                digit = (digit << 1) & near_mask
                digits[k] = digit ^ carry
                carry &= digit
            if carry:
                digits.append(carry)
            while digits and not digits[-1]:
                digits.pop()
            if top:
                hits = (top << 1) & near_mask
            elif (target := best_len + 1).bit_length() > len(digits):
                continue
            else:
                hits = near_mask
                for k, digit in enumerate(digits):
                    hits &= digit if target >> k & 1 else ~digit
            top = hits
            if hits:
                best_len, best_i = best_len + 1, i
                best_j = (hits & -hits).bit_length() - 1
        if collect:
            # Every run still open in the last row ends there.
            ended = row & (above << 1)
            if ended:
                _collect(runs, digits, ended, m - 1)
    return best_len, best_i, best_j, runs


def _collect(runs: list, digits: list[int], ended: int, i: int) -> None:
    """Append the runs ending at row i in the columns of `ended`, their
    lengths read from row i's digit slices."""
    while ended:
        low = ended & -ended
        ended ^= low
        length = 0
        for k, digit in enumerate(digits):
            if digit & low:
                length |= 1 << k
        j = low.bit_length() - 1
        runs.append((i - length + 1, j - length + 1, length))


def lcmap(p, p_prime, tau: int = DEFAULT_TAU) -> LcmapResult:
    """Longest common memory address pattern by a bit-parallel DP.

    The result is the run of P ending at the smallest index attaining
    the maximum; ties on the P' side break toward the earliest match for
    reproducible output.  A thin wrapper over `_sweep`, the only LCMAP
    dynamic program, that collects no runs; similarity reads its result,
    and diff_modified reads it for the threshold and the first split.
    Cost: O(m log L) operations on n-bit ints for the longest run L.  A
    negative tau makes no pair near.
    """
    first = _offsets(p)
    second = _offsets(p_prime)
    m, n = len(first), len(second)
    best_len, best_i, best_j, _ = _sweep(first, second, tau)
    return LcmapResult(
        pattern=first[best_i - best_len + 1 : best_i + 1],
        length=best_len,
        end_index=best_i,
        tau=tau,
        end_index_prime=best_j,
        ratio=best_len / min(m, n) if m and n else 0.0,
    )


def similarity(p, p_prime, tau: int = DEFAULT_TAU) -> float:
    """LCMAP length over the shorter pattern length; 0 for empty input.

    Normalizing by min(m, n) lets a short buffer signature fully embedded
    in a long execution trace score 1.0.
    """
    return lcmap(p, p_prime, tau).ratio


def extract_pattern(log: TraceLog,
                    bases: Sequence[AllocationRecord] = (),
                    event_filter: Optional[Callable[[AccessEvent], bool]] = None
                    ) -> AddressPattern:
    """Map a trace to relative offsets, preserving event order.

    Each access inside a known allocation is taken relative to the base
    of the first one in `bases` that contains it, found by one bisection
    in an OwnerIndex; leftovers fall back to the lowest address among
    them, the floor (0 when there are none).  The pattern's base is the
    first base's when accesses are selected and every one is owned,
    else the floor.  Without an event_filter the events are the
    program's own reads and writes: those from the main module, less
    injected page faults.
    """
    if event_filter is None:
        selected = _program_accesses(log)
    else:
        selected = [at for at, event in enumerate(log.events)
                    if event_filter(event)]
    addresses = list(map(log.columns.address.__getitem__, selected))
    owners = list(map(OwnerIndex(bases).owner, addresses))
    leftovers = [address for address, owner in zip(addresses, owners)
                 if owner is None]
    floor = min(leftovers, default=0)
    return AddressPattern(
        offsets=tuple(address - (floor if owner is None else owner.base)
                      for address, owner in zip(addresses, owners)),
        base=bases[0].base if bases and selected and not leftovers else floor,
        sizes=tuple(map(log.columns.operand_size.__getitem__, selected)),
    )


def diff_modified(p, p_prime, tau: int = DEFAULT_TAU,
                  threshold: float = DEFAULT_MATCH_THRESHOLD) -> DiffReport:
    """Localize modifications between two similar patterns.

    Greedy splitting over a worklist of (i0, i1, j0, j1) ranges, in the
    manner of difflib's get_matching_blocks: take a range's LCMAP as a
    matched run and queue the unmatched ranges before and after it; a
    range whose LCMAP is shorter than DEFAULT_MIN_RUN becomes one
    combined unmatched region, unless it is the whole pair and its LCMAP
    covers both sides.  (No later range can be near cell by cell along
    two equal sides: its corner cell would extend the maximal run that
    bounds it.)  Raises NotSimilarError when the patterns do not meet
    the match threshold.

    The whole-pair lcmap decides the threshold and is the first split.
    Each of the two leftover boxes is then swept once, collecting its
    maximal near-runs of at least DEFAULT_MIN_RUN, and every later range
    is answered from those runs: a range's DP is the whole DP clipped,
    D_R[i][j] = min(D[i][j], i - i0 + 1, j - j0 + 1), so a run's best
    cell in a range is its last cell inside it (`_clip`).  A range keeps
    its candidate runs in a lazy heap keyed by (-clipped length, end i,
    end j), the sub-DP's row-major earliest tie-break; a popped run is
    re-clipped and pushed back, which is sound because keys only get
    worse as ranges nest.  No run reaches into both halves of a split,
    so the child with the larger half-perimeter inherits the heap and
    the other builds its own from a per-diagonal index of the runs.
    """
    first = _offsets(p)
    second = _offsets(p_prime)
    whole = lcmap(first, second, tau)
    if whole.ratio < threshold:
        raise NotSimilarError(whole.ratio, threshold)
    m, n = len(first), len(second)
    report = DiffReport()
    pending = []
    index: dict[int, tuple[list[int], list]] = {}  # diagonal -> (ends, runs)
    length = whole.length
    if length < DEFAULT_MIN_RUN and not length == m == n:
        report.unmatched.append(((0, m), (0, n)))
    elif m:  # two empty patterns have nothing to report
        mi0 = whole.end_index - length + 1
        mj0 = whole.end_index_prime - length + 1
        report.matched.append(((mi0, mi0 + length), (mj0, mj0 + length)))
        for i0, i1, j0, j1 in ((0, mi0, 0, mj0),
                               (mi0 + length, m, mj0 + length, n)):
            runs = [(s + i0, t + j0, size) for s, t, size
                    in _sweep(first[i0:i1], second[j0:j1], tau, collect=True)[3]]
            for run in runs:
                ends, on_diagonal = index.setdefault(run[1] - run[0], ([], []))
                ends.append(run[0] + run[2] - 1)
                on_diagonal.append(run)
            heap = [(_clip(run, i0, i1, j0, j1), run) for run in runs]
            heapify(heap)
            pending.append((i0, i1, j0, j1, heap))
    diagonals = sorted(index)
    while pending:
        i0, i1, j0, j1, heap = pending.pop()
        if i0 >= i1 and j0 >= j1:
            continue
        while heap:
            stored, run = heap[0]
            key = _clip(run, i0, i1, j0, j1)
            if key == stored:
                break
            if key is None:
                heappop(heap)
            else:
                heapreplace(heap, (key, run))
        else:
            key = None
        if key is not None and -key[0] >= DEFAULT_MIN_RUN:
            heappop(heap)  # the chosen run reaches into neither child
            length = -key[0]
            mi0, mj0 = key[1] - length + 1, key[2] - length + 1
        else:
            report.unmatched.append(((i0, i1), (j0, j1)))
            continue
        report.matched.append(((mi0, mi0 + length), (mj0, mj0 + length)))
        larger = (i0, mi0, j0, mj0)
        smaller = (mi0 + length, i1, mj0 + length, j1)
        if mi0 - i0 + mj0 - j0 < i1 - mi0 + j1 - mj0 - 2 * length:
            larger, smaller = smaller, larger
        pending.append(larger + (heap,))
        pending.append(smaller + (_range_heap(index, diagonals, *smaller),))
    # The worklist order is arbitrary; sorting makes the report canonical.
    report.matched.sort()
    report.unmatched.sort()
    return report


def _clip(run: tuple[int, int, int], i0: int, i1: int, j0: int, j1: int):
    """A run's heap key in a range, or None when it has no cell there.

    The key is (-clipped length, end i, end j) for the run's last cell
    inside the range; its clipped length is the number of its cells
    inside the range."""
    s, t, length = run
    first = max(0, i0 - s, j0 - t)
    last = min(length - 1, i1 - 1 - s, j1 - 1 - t)
    if last < first:
        return None
    return first - last - 1, s + last, t + last


def _range_heap(index: dict, diagonals: list[int],
                i0: int, i1: int, j0: int, j1: int) -> list:
    """A heap of the indexed runs with a cell in a range, keyed by
    `_clip`: for each diagonal that crosses the range, the runs from the
    first one ending inside it to the last one starting inside it."""
    heap = []
    if i0 < i1 and j0 < j1:
        for d in diagonals[bisect_left(diagonals, j0 - i1 + 1):
                           bisect_right(diagonals, j1 - i0 - 1)]:
            ends, runs = index[d]
            row_end = min(i1, j1 - d)
            for k in range(bisect_left(ends, max(i0, j0 - d)), len(ends)):
                run = runs[k]
                if run[0] >= row_end:
                    break
                heap.append((_clip(run, i0, i1, j0, j1), run))
        heapify(heap)
    return heap


# -- signature files ----------------------------------------------------


# A signature file's keys, in the order it spells them: the pattern's,
# with the tau_default its matches use after its base.
_TAU = _Field("tau_default", _NAT)
_SIGNATURE_FIELDS = (_PATTERN_FIELDS[0], _TAU, *_PATTERN_FIELDS[1:])


def write_signature(pattern: AddressPattern, tau: int = DEFAULT_TAU) -> bytes:
    """The signature file of `pattern` and the tau its matches use."""
    _TAU.check(_TAU.name, tau)
    record = SimpleNamespace(**vars(pattern), tau_default=tau)
    return (json.dumps(_encode(_SIGNATURE_FIELDS, record)) + "\n").encode(
        "utf-8")


def read_signature(data) -> tuple[AddressPattern, int]:
    """Parse a signature file; returns (pattern, tau_default).

    Raises ValueError unless the file is one JSON object whose keys
    hold what _SIGNATURE_FIELDS and AddressPattern take: offsets, sizes
    (one per offset, when present), base and tau_default are integers or
    0x-hex strings, and base and tau_default are not negative.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        record = json.loads(data)
    except RecursionError:
        raise ValueError("signature JSON is nested too deeply") from None
    if not isinstance(record, dict):
        raise ValueError("a signature file holds one JSON object")
    if "offsets" not in record or "base" not in record:
        raise ValueError("a signature needs offsets and base")
    values = _decode(_SIGNATURE_FIELDS, record)
    tau = values.pop("tau_default", DEFAULT_TAU)
    pattern = AddressPattern._read(**values)
    _TAU.check(_TAU.name, tau)
    return pattern, tau

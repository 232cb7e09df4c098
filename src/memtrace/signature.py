"""Memory-address-pattern signatures: extraction, matching, diffing.

The core matcher finds the longest contiguous run of two offset
sequences whose elements pairwise differ by at most an alignment
threshold tau, by dynamic programming.  The DP is bit-parallel: each
row updates every column at once, with the run lengths held as binary
digit slices in Python ints, so an m x n match costs O(m log L)
big-int operations rather than m n interpreted steps.  Every other
question about two patterns is answered from that one kernel: the
normalized similarity score, and a greedy diff that splits ranges off a
worklist to localize source-level modifications between near-identical
patterns.  Events are attributed to allocations through recon's
OwnerIndex, one bisection per event.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .trace import AccessEvent, AddressPattern, TraceLog, _hex, _int_or_hex
from .recon import AllocationRecord, OwnerIndex

DEFAULT_TAU = 100
DEFAULT_MATCH_THRESHOLD = 0.8
DEFAULT_MIN_RUN = 2  # shortest diff run worth calling a match


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


def lcmap(p, p_prime, tau: int = DEFAULT_TAU) -> LcmapResult:
    """Longest common memory address pattern by a bit-parallel DP.

    D[i][j] extends D[i-1][j-1] by one when near(P[i-1], P'[j-1], tau)
    and resets to zero otherwise; the result is the run of P ending at
    the smallest index attaining the maximum.  Ties on the P' side break
    toward the earliest match for reproducible output.  This is the only
    LCMAP dynamic program; similarity and diff_modified read its result.

    One row of D is computed at a time, for every column at once, on
    Python ints used as bit vectors (bit j is column j), after Allison
    and Dix's bit-string LCS and Myers' bit-vector matching.  Row i's
    near set is the XOR of two prefix-OR masks over P' in sorted order,
    found by two bisections.  The run lengths are kept as binary digit
    slices: bit j of digits[k] is bit k of D[i][j].  A row shifts every
    slice by one column, clears the columns that are not near, and adds
    one to the near columns by a ripple carry.  A run grows by at most
    one per row, so a new maximum is best + 1; one slice-equality test
    per row finds its columns and the lowest set bit the earliest one.
    Cost: O(m log L) operations on n-bit ints, about m n log L / 64 word
    operations for the longest run L, plus n + 1 prefix masks of n bits.
    A negative tau makes no pair near.
    """
    first = _offsets(p)
    second = _offsets(p_prime)
    m, n = len(first), len(second)
    best_len = 0
    best_i = best_j = -1
    if tau >= 0 and m and n:
        order = sorted(range(n), key=second.__getitem__)
        values = [second[j] for j in order]
        prefix = [0]  # prefix[k]: the columns of the k smallest values
        for j in order:
            prefix.append(prefix[-1] | 1 << j)
        digits: list[int] = []  # digits[k]: bit k of every column's run
        for i, a in enumerate(first):
            near_mask = (prefix[bisect_right(values, a + tau)]
                         ^ prefix[bisect_left(values, a - tau)])
            carry = near_mask
            for k, digit in enumerate(digits):
                digit = (digit << 1) & near_mask
                digits[k] = digit ^ carry
                carry &= digit
            if carry:
                digits.append(carry)
            while digits and not digits[-1]:
                digits.pop()
            target = best_len + 1
            if target.bit_length() > len(digits):
                continue
            hits = near_mask
            for k, digit in enumerate(digits):
                hits &= digit if target >> k & 1 else ~digit
            if hits:
                best_len, best_i = target, i
                best_j = (hits & -hits).bit_length() - 1
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
    them.  The default filter keeps reads/writes issued from within the
    main module.
    """
    lo, hi = log.module_range
    if event_filter is None:
        def event_filter(e: AccessEvent) -> bool:
            if e.kind not in ("read", "write"):
                return False
            return lo <= e.rip < hi if hi > lo else True
    selected = [e for e in log.events if event_filter(e)]
    owners = OwnerIndex(bases)
    resolved: list[Optional[int]] = []
    leftovers = []
    for event in selected:
        owner = owners.owner(event.address)
        if owner is None:
            resolved.append(None)
            leftovers.append(event.address)
        else:
            resolved.append(event.address - owner.base)
    floor = min(leftovers) if leftovers else 0
    offsets = [
        (event.address - floor) if off is None else off
        for off, event in zip(resolved, selected)
    ]
    if not selected:
        return AddressPattern(offsets=(), base=0, sizes=())
    base = floor if leftovers else (bases[0].base if bases else 0)
    return AddressPattern(
        offsets=tuple(offsets),
        base=base,
        sizes=tuple(e.operand_size for e in selected),
    )


def diff_modified(p, p_prime, tau: int = DEFAULT_TAU,
                  threshold: float = DEFAULT_MATCH_THRESHOLD,
                  min_run: int = DEFAULT_MIN_RUN) -> DiffReport:
    """Localize modifications between two similar patterns.

    Greedy splitting over a worklist of (i0, i1, j0, j1) ranges, in the
    manner of difflib's get_matching_blocks: take a range's LCMAP as a
    matched run and queue the unmatched ranges before and after it; a
    range whose LCMAP is shorter than min_run (and does not cover both
    sides) becomes one combined unmatched region.  The full-size DP runs
    once: it decides the threshold and is the first split.  Raises
    NotSimilarError when the patterns do not meet the match threshold.
    """
    first = _offsets(p)
    second = _offsets(p_prime)
    whole = lcmap(first, second, tau)
    if whole.ratio < threshold:
        raise NotSimilarError(whole.ratio, threshold)
    min_run = max(min_run, 1)  # a zero-length run cannot split a range
    report = DiffReport()
    pending = [(0, len(first), 0, len(second), whole)]
    while pending:
        i0, i1, j0, j1, best = pending.pop()
        if i0 >= i1 and j0 >= j1:
            continue
        if best is None:
            best = lcmap(first[i0:i1], second[j0:j1], tau)
        length = best.length
        if length < min_run and not length == i1 - i0 == j1 - j0:
            report.unmatched.append(((i0, i1), (j0, j1)))
            continue
        mi0 = i0 + best.end_index - length + 1
        mj0 = j0 + best.end_index_prime - length + 1
        report.matched.append(((mi0, mi0 + length), (mj0, mj0 + length)))
        pending.append((i0, mi0, j0, mj0, None))
        pending.append((mi0 + length, i1, mj0 + length, j1, None))
    # The worklist order is arbitrary; sorting makes the report canonical.
    report.matched.sort()
    report.unmatched.sort()
    return report


# -- signature files ----------------------------------------------------


def write_signature(pattern: AddressPattern, tau: int = DEFAULT_TAU) -> bytes:
    record = {
        "base": _hex(pattern.base),
        "tau_default": tau,
        "offsets": list(pattern.offsets),
    }
    if pattern.sizes is not None:
        record["sizes"] = list(pattern.sizes)
    return (json.dumps(record) + "\n").encode("utf-8")


def _int_list(record: dict, key: str) -> tuple[int, ...]:
    values = record[key]
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list")
    if all(type(x) is int for x in values):
        return tuple(values)
    return tuple(_int_or_hex(x) for x in values)


def read_signature(data) -> tuple[AddressPattern, int]:
    """Parse a signature file; returns (pattern, tau_default).

    Raises ValueError unless the file is one JSON object whose offsets,
    sizes (one per offset, when present), base and tau_default are
    integers or 0x-hex strings.
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
    offsets = _int_list(record, "offsets")
    sizes = None
    if record.get("sizes") is not None:
        sizes = _int_list(record, "sizes")
        if len(sizes) != len(offsets):
            raise ValueError("sizes and offsets differ in length")
    pattern = AddressPattern(offsets=offsets, base=_int_or_hex(record["base"]),
                             sizes=sizes)
    return pattern, _int_or_hex(record.get("tau_default", DEFAULT_TAU))

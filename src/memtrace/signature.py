"""Memory-address-pattern signatures: extraction, matching, diffing.

The core matcher finds the longest contiguous run of two offset
sequences whose elements pairwise differ by at most an alignment
threshold tau, by dynamic programming.  Every other question about two
patterns is answered from that one kernel: the normalized similarity
score, and a greedy diff that splits ranges off a worklist to localize
source-level modifications between near-identical patterns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .trace import AccessEvent, AddressPattern, TraceLog, _hex, _int_or_hex
from .recon import AllocationRecord

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
    """Longest common memory address pattern by dynamic programming.

    D[i][j] extends D[i-1][j-1] by one when near(P[i-1], P'[j-1], tau)
    and resets to zero otherwise; the result is the run of P ending at
    the smallest index attaining the maximum.  Ties on the P' side break
    toward the earliest match for reproducible output.  This is the only
    LCMAP dynamic program; similarity and diff_modified read its result.
    """
    first = _offsets(p)
    second = _offsets(p_prime)
    m, n = len(first), len(second)
    best_len = 0
    best_i = best_j = -1
    previous = [0] * (n + 1)
    for i, a in enumerate(first):
        current = [0] * (n + 1)
        for j, b in enumerate(second):
            if abs(a - b) <= tau:  # near(a, b, tau), inlined
                run = previous[j] + 1
                current[j + 1] = run
                if run > best_len:
                    best_len, best_i, best_j = run, i, j
        previous = current
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

    Each access inside a known allocation is taken relative to that
    allocation's base; leftovers fall back to the lowest address among
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
    resolved: list[Optional[int]] = []
    leftovers = []
    for event in selected:
        owner = next((b for b in bases if b.contains(event.address)), None)
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
    return tuple(_int_or_hex(x) for x in values)


def read_signature(data) -> tuple[AddressPattern, int]:
    """Parse a signature file; returns (pattern, tau_default).

    Raises ValueError unless the file is one JSON object whose offsets,
    sizes (one per offset, when present), base and tau_default are
    integers or 0x-hex strings.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    record = json.loads(data)
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

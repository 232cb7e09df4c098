"""Output checks against the planted ground truth.

Every check takes one job (with the truth its generator planted), the
job's exit code and captured stdout, and returns None when the output is
right or a one-line reason when it is not.  Checks run after the timed
passes and read only what the job printed or wrote.
"""

from __future__ import annotations

import json
from typing import Optional

from workloads import TAU


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def check_simulate(job: dict, stdout: str) -> Optional[str]:
    words = stdout.split()
    if len(words) != 2 or words[1] != "events" or not words[0].isdigit():
        return f"unexpected simulate output {stdout!r}"
    lines = [line for line in _read(job["out"]).splitlines() if line.strip()]
    if int(words[0]) != len(lines) - 1 or int(words[0]) == 0:
        return f"simulate printed {words[0]} events, trace holds {len(lines) - 1}"
    return None


def check_sign(job: dict, stdout: str) -> Optional[str]:
    words = stdout.split()
    if len(words) != 2 or words[1] != "offsets" or not words[0].isdigit():
        return f"unexpected sign output {stdout!r}"
    record = json.loads(_read(job["out"]))
    if len(record["offsets"]) != int(words[0]) or not record["offsets"]:
        return "signature length differs from the printed count"
    return None


def check_bases(job: dict, stdout: str) -> Optional[str]:
    """Every planted allocation is listed as a heap-hook with its size."""
    listed = set()
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            listed.add((parts[0], parts[1], parts[2]))
    for base, size in job["truth"]:
        if (f"0x{base:x}", f"0x{size:x}", "heap-hook") not in listed:
            return f"planted allocation 0x{base:x}+0x{size:x} missing"
    return None


def check_flags(job: dict, stdout: str) -> Optional[str]:
    """Exactly the planted rules fire, once each, on thread 0."""
    hits = []
    for line in stdout.splitlines():
        rule, sep, rest = line.rpartition(" tid=")
        if not sep:
            return f"unparsable flags line {line!r}"
        if not rest.startswith("0 "):
            return f"hit on unexpected thread: {line!r}"
        hits.append(rule)
    if sorted(hits) != sorted(job["truth"]):
        return f"flagged {sorted(hits)}, planted {sorted(job['truth'])}"
    return None


def check_reconstruct(job: dict, stdout: str) -> Optional[str]:
    """Every planted field comes back with its offset, size and category."""
    report = json.loads(_read(job["out"]))
    got = {(f["offset"], f["size"], f["category"]) for f in report["fields"]}
    for offset, size, category in job["truth"]:
        if (offset, size, category) not in got:
            return f"field {category} {size}@{offset} not recovered"
    return None


def check_match(job: dict, stdout: str) -> Optional[str]:
    result = json.loads(stdout)
    truth = job["truth"]
    if result["verdict"] != truth["verdict"]:
        return f"verdict {result['verdict']}, planted {truth['verdict']}"
    if result["L"] < truth["core"]:
        return f"run {result['L']} shorter than the planted core {truth['core']}"
    return None


def _tiles(ranges: list, length: int) -> bool:
    cursor = 0
    for lo, hi in sorted(r for r in ranges if r[0] < r[1]):
        if lo != cursor:
            return False
        cursor = hi
    return cursor == length and all(0 <= lo <= hi for lo, hi in ranges)


def check_diff(job: dict, stdout: str) -> Optional[str]:
    """Ranges tile both patterns, matched pairs are near element-wise, and
    each planted edit falls inside an unmatched range."""
    result = json.loads(stdout)
    if result.get("declined"):
        return f"diff declined (ratio {result.get('ratio')})"
    a = json.loads(_read(job["inputs"][0]))["offsets"]
    b = json.loads(_read(job["inputs"][1]))["offsets"]
    matched = result["matched"]
    unmatched = result["unmatched"]
    for side, pattern in ((0, a), (1, b)):
        if not _tiles([pair[side] for pair in matched + unmatched], len(pattern)):
            return f"ranges do not tile side {'ab'[side]} exactly"
    for (i0, i1), (j0, j1) in matched:
        if i1 - i0 != j1 - j0:
            return f"matched ranges differ in length: {[i0, i1]} {[j0, j1]}"
        if any(abs(a[i0 + k] - b[j0 + k]) > TAU for k in range(i1 - i0)):
            return f"matched run {[i0, i1]} ~ {[j0, j1]} not within tau"
    for side, (lo, hi) in enumerate(job["truth"]["edits"]):
        for index in range(lo, hi):
            if not any(pair[side][0] <= index < pair[side][1]
                       for pair in unmatched):
                return f"planted edit at {'ab'[side]}[{index}] is matched"
    return None


CHECKS = {
    "simulate": check_simulate,
    "sign": check_sign,
    "bases": check_bases,
    "flags": check_flags,
    "reconstruct": check_reconstruct,
    "match": check_match,
    "diff": check_diff,
}


def check_job(job: dict, exit_code: Optional[int], stdout: str) -> Optional[str]:
    """None if the job exited as planted and its output is right."""
    if exit_code != job["expect"]:
        return f"exit code {exit_code}, planted {job['expect']}"
    try:
        return CHECKS[job["kind"]](job, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"

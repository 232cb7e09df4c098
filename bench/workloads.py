"""Seeded input generators for the four benchmark workloads.

Each generator writes model or signature files into a work directory and
returns a manifest: the jobs of one pass (argv lists for `memtrace`), the
planted ground truth each job is checked against, and the input sizes.
The generators write the documented file formats directly and import
nothing from memtrace, so the program only ever sees the generated files.

Sizes come from fixed log-spaced grids, so every seed yields the same
size mix; the seed picks the contents (op kinds, values, planted
allocations, fields, edits) and the job order.  That keeps the cost of a
pass steady across seeds while the inputs still differ.
"""

from __future__ import annotations

import json
import math
import os
import random

TAU = 100
PAGE = 4096
ENTRY_PAGE = 0x401  # module starts at 0x401000
SP_INIT = 0x7FF000
ALLOC_BASE = 0x9000  # the guest hands out page-granular buffers from here
MAX_STACK_DEPTH = 0x6000  # the guest maps 0x10000 bytes below sp_init

# Callee names that are neither allocators nor a step of any evasive rule,
# so they can never create a base or a rule hit of their own.
NOISE_CALLEES = ("memcpy", "strlen", "printf", "fopen", "fread", "qsort",
                 "GetTickCount", "Sleep")
HEAP_ALLOCATORS = ("malloc", "HeapAlloc", "LocalAlloc",
                   "NtAllocateVirtualMemory")
# Allocator names that are also a step of an evasive rule.
RULE_ALLOCATORS = frozenset({"VirtualAlloc"})

# The rules memtrace ships by default (recon.EVASIVE_SEQUENCES), restated
# here so the planted truth does not come from the program under test.
# Every rule has a first step no other rule uses, so a rule can only fire
# where it was planted.
EVASIVE_RULES = (
    ("Early Bird APC Code Injection",
     ("CreateProcessA", "WriteProcessMemory", "QueueUserAPC", "ResumeThread")),
    ("Process Injection",
     ("OpenProcess", "VirtualAllocEx", "WriteProcessMemory",
      ("CreateRemoteThread", "NtCreateThreadEx", "RtlCreateUserThread"))),
    ("Load PE From Resource",
     ("FindResource", "SizeofResource", "LoadResource", "VirtualAlloc")),
    ("Module Execution Through Fibers",
     ("ConvertThreadToFiber", "VirtualAlloc", "CreateFiber")),
    ("Module Execution Through Thread Pool",
     ("CreateEvent", "VirtualAlloc", "CreateThreadpoolWait",
      "SetThreadpoolWait")),
    ("Window Hooking",
     ("LoadLibraryA", "GetProcAddress", "SetWindowsHookEx")),
    ("Map View of Section",
     ("NtCreateSection", "NtMapViewOfSection", "RtlCreateUserThread")),
)

# (category reported by reconstruct, size, model cat, model sign)
FIELD_KINDS = (
    ("int", 4, "int-move", "signed"),
    ("unsigned int", 4, "int-move", "unsigned"),
    ("short", 2, "int-move", "signed"),
    ("unsigned short", 2, "int-move", "unsigned"),
    ("long long", 8, "int-move", "signed"),
    ("unsigned long long", 8, "int-move", "unsigned"),
    ("double", 8, "float-move", "signed"),
    ("pointer", 8, "int-move", "unsigned"),
    ("pointer", 8, "int-move", "unsigned"),
    ("char", 1, "int-move", "signed"),
)


def log_grid(lo: float, hi: float, count: int) -> list[int]:
    """`count` sizes spread log-uniformly over [lo, hi], endpoints included."""
    if count == 1:
        return [round(lo)]
    ratio = math.log(hi / lo)
    return [round(lo * math.exp(ratio * k / (count - 1))) for k in range(count)]


def _hex(value: int) -> str:
    return f"0x{value:x}"


def _small_int(rng: random.Random) -> int:
    # Well below the lowest traced address, so never taken for a pointer.
    return rng.randrange(1, 0x1000)


class ModelWriter:
    """Builds one program model and tracks the guest state it implies.

    The guest hands out allocations page by page from ALLOC_BASE, so the
    writer knows every planted base before the model runs.
    """

    def __init__(self):
        self.ops: list[dict] = []
        self.depth = 0  # bytes below SP_INIT
        self.cursor = ALLOC_BASE
        self.allocs: list[tuple[int, int]] = []

    def alloc(self, size: int, callee: str) -> int:
        base = self.cursor
        self.cursor += max(1, -(-size // PAGE)) * PAGE
        self.ops.append({"op": "alloc", "size": size, "callee": callee})
        self.allocs.append((base, size))
        return base

    def access(self, kind: str, addr: int, size: int, cat: str, sign: str,
               value: int = 0) -> None:
        op = {"op": "mov-write" if kind == "write" else "mov-read",
              "addr": _hex(addr), "size": size, "cat": cat, "sign": sign}
        if kind == "write":
            op["value"] = _hex(value)
        self.ops.append(op)

    def call(self, callee: str, args: list[int]) -> None:
        self.ops.append({"op": "call", "callee": callee, "args": args})
        self.depth += 8

    def ret(self) -> None:
        if self.depth >= 8:
            self.ops.append({"op": "ret"})
            self.depth -= 8

    def push(self, value: int) -> None:
        self.ops.append({"op": "push", "value": _hex(value)})
        self.depth += 8

    def sub_sp(self, amount: int) -> None:
        self.ops.append({"op": "sub-sp", "amount": amount})
        self.depth += amount

    def xmm_zero_run(self, count: int) -> None:
        """`count` adjacent 16-byte zeroing stores below the stack pointer."""
        base = (SP_INIT - self.depth - 0x100 - 16 * count) & ~0xF
        for k in range(count):
            self.ops.append({"op": "xmm-zero", "addr": _hex(base + 16 * k)})

    def write(self, path: str) -> None:
        header = {"entry_page": ENTRY_PAGE, "sp_init": _hex(SP_INIT),
                  "tid": 0, "cpl": "user"}
        lines = [json.dumps(header)] + [json.dumps(op) for op in self.ops]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def _signature_file(path: str, offsets: list[int], rng: random.Random) -> None:
    record = {"base": _hex(ALLOC_BASE), "tau_default": TAU,
              "offsets": offsets,
              "sizes": [rng.choice((1, 2, 4, 8)) for _ in offsets]}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


# -- sign ------------------------------------------------------------------

SIGN_MODELS = 34  # x3 jobs = 102 jobs per pass
SIGN_OPS = (300, 3000)
# Share of a model's ops by kind; the rest are loads and stores into the
# allocations.  Six-argument calls pass two arguments in stack slots.
SIGN_MIX = (("call6", 0.10), ("call", 0.06), ("ret", 0.22), ("push", 0.04),
            ("sub-sp", 0.01), ("xmm", 0.01))


def _sign_model(rng: random.Random, n_ops: int):
    """A call-dense model, its planted allocations and planted rules."""
    w = ModelWriter()
    for _ in range(4):
        w.alloc(8 * rng.randrange(8, 0x200), rng.choice(HEAP_ALLOCATORS))
    pools = [[base + 8 * rng.randrange(size // 8) for _ in range(3)]
             for base, size in w.allocs]
    pointers = [p for pool in pools for p in pool]

    planted_rules = []
    steps: list[str] = []
    if rng.random() < 0.6:
        for name, rule in rng.sample(EVASIVE_RULES, rng.randrange(1, 3)):
            planted_rules.append(name)
            for step in rule:
                steps.append(step if isinstance(step, str) else rng.choice(step))
    # Rule steps go at increasing positions, in rule order.
    step_at = dict(zip(sorted(rng.sample(range(n_ops), len(steps))), steps))

    def arg() -> int:
        return rng.choice(pointers) if rng.random() < 0.4 else _small_int(rng)

    def mem_access() -> None:
        base, size = rng.choice(w.allocs)
        width = rng.choice((1, 2, 4, 8))
        addr = base + width * rng.randrange(max(1, size // width))
        kind = "write" if rng.random() < 0.5 else "read"
        w.access(kind, addr, width, "int-move",
                 rng.choice(("signed", "unsigned")), _small_int(rng))

    # Exact op counts per model, in random order, so that a model's cost
    # depends on its size and hardly on the seed.
    kinds = [kind for kind, share in SIGN_MIX for _ in range(round(share * n_ops))]
    kinds += ["mem"] * (n_ops - len(kinds))
    rng.shuffle(kinds)
    for slot, kind in enumerate(kinds):
        if slot in step_at:
            callee = step_at[slot]
            if callee in RULE_ALLOCATORS:
                w.alloc(8 * rng.randrange(8, 0x400), callee)
            else:
                w.call(callee, [arg() for _ in range(rng.randrange(1, 5))])
        elif kind == "call6":
            w.call(rng.choice(NOISE_CALLEES), [arg() for _ in range(6)])
        elif kind == "call":
            w.call(rng.choice(NOISE_CALLEES),
                   [arg() for _ in range(rng.randrange(1, 5))])
        elif kind == "ret" and w.depth >= 8:
            w.ret()
        elif kind == "push" and w.depth <= MAX_STACK_DEPTH:
            w.push(_small_int(rng))
        elif kind == "sub-sp" and w.depth <= MAX_STACK_DEPTH:
            w.sub_sp(8 * rng.randrange(5, 32))
        elif kind == "xmm":
            w.xmm_zero_run(rng.randrange(2, 6))
        else:
            mem_access()
    return w, [[base, size] for base, size in w.allocs], sorted(planted_rules)


def generate_sign(rng: random.Random, workdir: str, scale: float) -> dict:
    sizes = log_grid(SIGN_OPS[0] * scale, SIGN_OPS[1] * scale, SIGN_MODELS)
    rng.shuffle(sizes)
    jobs, checks, models = [], [], []
    for k, n_ops in enumerate(sizes):
        model, allocs, rules = _sign_model(rng, max(n_ops, 40))
        stem = os.path.join(workdir, f"sign{k:03d}")
        model.write(stem + ".model")
        trace, sig = stem + ".trace", stem + ".sig"
        jobs.append({"id": f"m{k}.simulate", "kind": "simulate", "expect": 0,
                     "argv": ["simulate", stem + ".model", "--out", trace],
                     "out": trace})
        jobs.append({"id": f"m{k}.sign", "kind": "sign", "expect": 0,
                     "argv": ["sign", trace, "--tau", str(TAU), "--out", sig],
                     "out": sig})
        jobs.append({"id": f"m{k}.flags", "kind": "flags", "expect": 0,
                     "argv": ["flags", trace], "truth": rules})
        # The bases listing is the check on the sign path, run untimed.
        checks.append({"id": f"m{k}.bases", "kind": "bases", "expect": 0,
                       "argv": ["bases", trace], "truth": allocs})
        models.append(len(model.ops))
    return {"jobs": jobs, "checks": checks,
            "sizes": {"models": len(models), "ops_min": min(models),
                      "ops_max": max(models), "ops_total": sum(models)}}


# -- layout ----------------------------------------------------------------

# (structs, events) per model.  Each model's reconstruct jobs cost about
# the same, so the sorted job times form one plateau per model; five
# plateaus put the median and the p90 inside one, not on a boundary.
LAYOUT_MODELS = ((20, 1000), (22, 1500), (24, 2200), (26, 2900), (28, 3600))


def _struct_fields(rng: random.Random) -> tuple[list, int]:
    """Naturally aligned fields with random gaps, no two adjacent bytes."""
    fields = []
    cursor = 0
    last_size = None
    for _ in range(rng.randrange(3, 9)):
        kind = rng.choice(FIELD_KINDS)
        if kind[1] == 1 and last_size == 1:
            kind = FIELD_KINDS[0]
        size = kind[1]
        cursor = -(-cursor // size) * size
        fields.append((cursor,) + kind)
        gap = rng.choice((0, 0, 0, 2, 8))
        last_size = None if gap else size
        cursor += size + gap
    return fields, -(-cursor // 8) * 8


def _layout_model(rng: random.Random, n_structs: int, n_events: int):
    w = ModelWriter()
    structs = []
    for _ in range(n_structs):
        fields, total = _struct_fields(rng)
        base = w.alloc(total, rng.choice(HEAP_ALLOCATORS))
        structs.append((base, total, fields))
    bases = [s[0] for s in structs]
    planted = []  # (addr, size, cat, sign, value) per field
    for base, _total, fields in structs:
        for offset, category, size, cat, sign in fields:
            value = (rng.choice(bases) if category == "pointer"
                     else rng.randrange(1, 0x1000))
            planted.append((base + offset, size, cat, sign, value))
    # Interleave the structs' accesses; each field's first access writes.
    per_field = max(1, n_events // len(planted))
    queue = [k for k in range(len(planted))
             for _ in range(rng.randrange(max(1, per_field // 2),
                                          per_field * 3 // 2 + 1))]
    rng.shuffle(queue)
    written = set()
    for k in queue:
        addr, size, cat, sign, value = planted[k]
        kind = "write" if k not in written or rng.random() < 0.5 else "read"
        written.add(k)
        w.access(kind, addr, size, cat, sign, value)
        if rng.random() < 0.01:
            w.call(rng.choice(NOISE_CALLEES),
                   [_small_int(rng) for _ in range(rng.randrange(1, 5))])
            w.ret()
    return w, structs


def generate_layout(rng: random.Random, workdir: str, scale: float) -> dict:
    jobs, events = [], []
    plan = list(LAYOUT_MODELS)
    rng.shuffle(plan)
    n_fields = 0
    for k, (n_structs, n_events) in enumerate(plan):
        n_structs = max(2, round(n_structs * scale))
        model, structs = _layout_model(rng, n_structs, round(n_events * scale))
        stem = os.path.join(workdir, f"layout{k:03d}")
        model.write(stem + ".model")
        trace = stem + ".trace"
        model_jobs = [
            {"id": f"m{k}.simulate", "kind": "simulate", "expect": 0,
             "argv": ["simulate", stem + ".model", "--out", trace],
             "out": trace},
            {"id": f"m{k}.sign", "kind": "sign", "expect": 0,
             "argv": ["sign", trace, "--tau", str(TAU), "--out", stem + ".sig"],
             "out": stem + ".sig"},
        ]
        recon_jobs = []
        for s, (base, total, fields) in enumerate(structs):
            report = f"{stem}.s{s:02d}.json"
            recon_jobs.append({
                "id": f"m{k}.s{s}.reconstruct", "kind": "reconstruct",
                "expect": 0, "out": report,
                "argv": ["reconstruct", trace, "--base", _hex(base),
                         "--size", str(total), "--out", report],
                "truth": [[off, size, category]
                          for off, category, size, _c, _s in fields]})
            n_fields += len(fields)
        rng.shuffle(recon_jobs)
        jobs.extend(model_jobs + recon_jobs)
        events.append(len(model.ops))
    return {"jobs": jobs, "checks": [],
            "sizes": {"models": len(plan), "structs": len(jobs) - 2 * len(plan),
                      "fields": n_fields, "ops_min": min(events),
                      "ops_max": max(events), "ops_total": sum(events)}}


# -- match -----------------------------------------------------------------

MATCH_CORPUS = 100
MATCH_QUERY = 200
MATCH_LENGTHS = (200, 1500)
OFFSET_SPAN = 0x4000


def _noisy(rng: random.Random, offsets: list[int]) -> list[int]:
    return [x + rng.randrange(-40, 41) for x in offsets]


def generate_match(rng: random.Random, workdir: str, scale: float) -> dict:
    query_len = max(10, round(MATCH_QUERY * scale))
    query = [rng.randrange(OFFSET_SPAN) for _ in range(query_len)]
    query_path = os.path.join(workdir, "query.sig")
    _signature_file(query_path, query, rng)
    lengths = log_grid(max(10, MATCH_LENGTHS[0] * scale),
                       max(10, MATCH_LENGTHS[1] * scale), MATCH_CORPUS)
    variants = set(rng.sample(range(MATCH_CORPUS), MATCH_CORPUS // 4))
    order = list(range(MATCH_CORPUS))
    rng.shuffle(order)
    jobs = []
    for k in order:
        length = lengths[k]
        offsets = [rng.randrange(OFFSET_SPAN) for _ in range(length)]
        core = 0
        if k in variants:
            # A noisy copy of at least 90 % of the shorter pattern: a
            # contiguous near-run, so similarity is at least 0.9.
            core = -(-9 * min(length, query_len) // 10)
            start = rng.randrange(query_len - core + 1)
            at = rng.randrange(length - core + 1)
            offsets[at:at + core] = _noisy(rng, query[start:start + core])
        path = os.path.join(workdir, f"corpus{k:03d}.sig")
        _signature_file(path, offsets, rng)
        jobs.append({"id": f"c{k}.match", "kind": "match",
                     "expect": 0 if k in variants else 1,
                     "argv": ["match", query_path, path, "--tau", str(TAU)],
                     "truth": {"verdict": "match" if k in variants
                               else "no-match", "core": core}})
    return {"jobs": jobs, "checks": [],
            "sizes": {"query": query_len, "corpus": MATCH_CORPUS,
                      "variants": len(variants), "len_min": min(lengths),
                      "len_max": max(lengths)}}


# -- diff ------------------------------------------------------------------

DIFF_PAIRS = 100
DIFF_PATHOLOGICAL = 25
DIFF_LENGTHS = (150, 450)
DIFF_REGIONS = (100, 200)
SHIFT = 5 * TAU
# Edited offsets come from bands no other offset uses, one per side, so an
# edit can never be near anything on the other side.
EDIT_BAND_A = (0x8000, 0xA000)
EDIT_BAND_B = (0xC000, 0xE000)


def _diff_pair(rng: random.Random, length: int, region: int):
    """Two near-identical patterns of `length` offsets with one planted
    edit and, if `region`, a pathological stretch where every third
    offset is shifted by 5 tau.

    The edit replaces 1-15 offsets on both sides, so both patterns keep
    `length` offsets and the pair's cost depends on its size alone.  The
    edit, its margin and the stretch sit at one end, outside a clean run
    that is at least 0.8 of the pattern: length >= 5 * (region + 20).
    """
    edit = rng.randrange(1, 16)
    margin = rng.randrange(1, 6)
    clean = length - region - margin - edit
    a_core = [rng.randrange(OFFSET_SPAN) for _ in range(clean + region + margin)]
    b_core = _noisy(rng, a_core)
    for k in range(clean, clean + region, 3):
        b_core[k] += SHIFT
    at = clean + region + rng.randrange(margin + 1)
    a = (a_core[:at] + [rng.randrange(*EDIT_BAND_A) for _ in range(edit)]
         + a_core[at:])
    b = (b_core[:at] + [rng.randrange(*EDIT_BAND_B) for _ in range(edit)]
         + b_core[at:])
    edits = [[at, at + edit], [at, at + edit]]
    if rng.random() < 0.5:
        # Mirror so the edited end is the start half of the time.
        a.reverse()
        b.reverse()
        edits = [[length - at - edit, length - at]] * 2
    return a, b, edits


def generate_diff(rng: random.Random, workdir: str, scale: float) -> dict:
    n_path = DIFF_PATHOLOGICAL
    regions = log_grid(max(3, DIFF_REGIONS[0] * scale),
                       max(3, DIFF_REGIONS[1] * scale), n_path)
    lengths = log_grid(max(100, DIFF_LENGTHS[0] * scale),
                       max(100, DIFF_LENGTHS[1] * scale), DIFF_PAIRS - n_path)
    plans = [(length, 0) for length in lengths]
    plans += [(5 * region + 110, region) for region in regions]
    rng.shuffle(plans)
    jobs, lens = [], []
    for k, (length, region) in enumerate(plans):
        a, b, edits = _diff_pair(rng, length, region)
        pa = os.path.join(workdir, f"pair{k:03d}.a.sig")
        pb = os.path.join(workdir, f"pair{k:03d}.b.sig")
        _signature_file(pa, a, rng)
        _signature_file(pb, b, rng)
        lens += [len(a), len(b)]
        jobs.append({"id": f"p{k}.diff", "kind": "diff", "expect": 0,
                     "argv": ["diff", pa, pb, "--tau", str(TAU)],
                     "inputs": [pa, pb],
                     "truth": {"edits": edits, "region": region}})
    return {"jobs": jobs, "checks": [],
            "sizes": {"pairs": DIFF_PAIRS, "pathological": n_path,
                      "len_min": min(lens), "len_max": max(lens),
                      "region_min": min(regions), "region_max": max(regions)}}


GENERATORS = {
    "sign": generate_sign,
    "layout": generate_layout,
    "match": generate_match,
    "diff": generate_diff,
}


def generate(workload: str, seed: int, workdir: str, scale: float = 1.0) -> dict:
    """Write one pass's inputs for `workload` into `workdir`; return the
    manifest (jobs, untimed check jobs, input sizes)."""
    rng = random.Random(f"{workload}:{seed}")
    manifest = GENERATORS[workload](rng, workdir, scale)
    manifest["workload"] = workload
    manifest["seed"] = seed
    return manifest
